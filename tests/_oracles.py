"""Independent reference implementations used as test oracles.

These evaluate the norms by literal shell integration with exact Fraction
measures and plain float powers, from ``shell_decomposition`` below.  They
share nothing with the production log-domain subtree kernels except the
cube and support-tree types, and are only meant for small, benign inputs.

``reference_candidates`` and ``reference_supremum`` are the other kind of
reference: they run the production kernels over the full, uncompressed
candidate set, enumerated as path tuples.

``reference_function_norm`` is the analyzer's function-side norm evaluated
one dyadic cube at a time, the loop the pyramid in ``analyze`` replaced.
``full_spectrum_band_pass`` and ``full_spectrum_band_limit_fraction`` take a
band-pass and the band-limit fraction on the full ``fftn`` spectrum, for real
signals the route that the half spectrum (``rfftn`` / ``irfftn``) replaced.

``shell_measures`` is the geometry's shell measures in Python integers
throughout, the loop that the float path of ``Geometry._shell_measures``
replaced for parents whose child shifts fit in a float's mantissa.

``reference_sample_set`` draws a sample set one ``random_sequence`` at a
time and compiles the list as a ``Forest``: the route that drawing the set
straight into one forest replaced.  ``reference_jsonl`` is the text
``save_jsonl`` writes, each record through ``json_dumps``.

``reference_random_bandlimited`` and ``reference_sawtooth_smoothed`` are the
analyzer's seeded signals as direct sums, one full-grid cosine or sine per
mode: the loops that one inverse FFT of the known spectrum replaced.

``candidate_value`` is the single-cube term of the outer supremum at any
cube comparable to the root, through the production kernel, and ``locate``
the range of support nodes inside that cube.

``reference_certify`` is ``certify_separation`` with each depth's tower
evaluated alone, through ``b_type_norm`` and ``norm``: the per-depth loop
that evaluating the whole depth schedule as one forest replaced.

``reference_report`` is an equivalence check's report formed one sample at
a time from its log2 norms, each sample's ratios a tuple, the loop that the
array report driver ``equivalence._report`` replaced; ``reference_json_text``
is the CLI's JSON output as ``json_dumps`` writes it with ``indent=2`` after
``reference_sanitize``, the route that the one-pass writer
``cli._json_text`` replaced.

``saturated_tree_sequence`` builds every cube of the unit tree to a depth,
with equal effective weights, and ``saturated_ratio_log2`` is the closed
form of its collapse ratio: fixtures of the tests, not library API, as
are ``zero_sequence``, ``log2_magnitudes``, ``volume``, ``complex_harmonic``
and the ``caterpillar`` fields of long tails under a spine of branch points.
"""
from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from dyadic_spaces import (
    CubeSequence, DyadicCube, Family, Forest, GridFunction, SpaceParams, SupportTree,
    b_type_norm, build_tower, lp_convolve, norm, random_sequence, separation_b_bound_log2,
    separation_f_bound_log2, witness,
)
from dyadic_spaces._geometry import _MIN_CHAIN, morton_paths
from dyadic_spaces._log2 import inv, log2_to_linear
from dyadic_spaces.analyze import _grids, annulus_profile
from dyadic_spaces.equivalence import EquivalenceReport
from dyadic_spaces.seqspace import _kernel, json_dumps

INF = math.inf
NEG_INF = float("-inf")


def zero_sequence(root: DyadicCube) -> CubeSequence:
    """The sequence without support under the root."""
    return CubeSequence.from_records(root, [], [], [], 0)


def log2_magnitudes(seq: CubeSequence) -> dict[DyadicCube, float]:
    """Support cube -> log2 magnitude, in (level, index) order."""
    return {c: seq.log2_value(c) for c in seq.support}


def volume(cube: DyadicCube) -> Fraction:
    """The exact volume 2**(-level * dim) of a cube."""
    e = cube.level * cube.dim
    return Fraction(1, 2**e) if e >= 0 else Fraction(2**-e)


def complex_harmonic(dim: int, L: int, mode) -> GridFunction:
    """exp(2 pi i m . x) for an integer mode vector m: the one complex signal."""
    mode = (mode,) if isinstance(mode, int) else tuple(mode)
    phase = sum(m * g for m, g in zip(mode, _grids(dim, L)))
    return GridFunction(dim, L, np.exp(2j * np.pi * phase))


def caterpillar(rng, dim: int, spine: int, root_level: int = 0) -> CubeSequence:
    """A spine of cubes [0, 2**-j) under which tails of random lengths (some
    past ``_MIN_CHAIN``) hang, each a chain of first children entering the
    spine cube's second child a random number of levels down.  Some spine
    cubes are left out, so that a tail's support parent may lie higher up."""
    def cube(level: int, first: int) -> DyadicCube:
        return DyadicCube(dim, level, (first,) + (0,) * (dim - 1))

    values = {}
    for j in range(spine + 1):
        if j == 0 or rng.random() < 0.8:
            values[cube(root_level + j, 0)] = rng.uniform(-3, 3)
        if j < spine and rng.random() < 0.7:
            gap = rng.randrange(3)
            length = rng.choice([2, _MIN_CHAIN - 1, _MIN_CHAIN, _MIN_CHAIN + 5, 2 * _MIN_CHAIN])
            top = root_level + j + 1 + gap
            for d in range(length):
                values[cube(top + d, 1 << (gap + d))] = rng.uniform(-3, 3)
    return CubeSequence.from_log2_values(values, root=cube(root_level, 0))


def path_from(cube: DyadicCube, ancestor: DyadicCube) -> tuple[int, ...]:
    """Child-code path from ``ancestor`` down to ``cube``."""
    if not ancestor.contains(cube):
        raise ValueError(f"{ancestor} does not contain {cube}")
    codes = []
    for lvl in range(ancestor.level + 1, cube.level + 1):
        shift = cube.level - lvl
        codes.append(sum(((k >> shift) & 1) << d for d, k in enumerate(cube.index)))
    return tuple(codes)


def lower_corner(cube: DyadicCube) -> tuple[Fraction, ...]:
    """The exact lower corner of a cube, one coordinate per axis."""
    j = cube.level
    if j >= 0:
        return tuple(Fraction(k, 2**j) for k in cube.index)
    return tuple(Fraction(k * 2**-j) for k in cube.index)


def value(seq: CubeSequence, cube: DyadicCube) -> float:
    """The linear magnitude of ``seq`` at a cube; 0 off the support."""
    lv = seq.log2_value(cube)
    return 0.0 if lv == NEG_INF else 2.0**lv


def scaled_log2(seq: CubeSequence, shift: float) -> CubeSequence:
    """The sequence with every magnitude multiplied by 2**shift."""
    values = {q: v + shift for q, v in log2_magnitudes(seq).items()}
    return CubeSequence.from_log2_values(values, seq.root, seq.max_depth)


def with_entry(seq: CubeSequence, cube: DyadicCube, log2_value: float) -> CubeSequence:
    """The sequence with one magnitude set; the unit root when the cube lies outside."""
    values = log2_magnitudes(seq)
    values[cube] = log2_value
    root = seq.root if seq.root.contains(cube) else None
    return CubeSequence.from_log2_values(values, root=root)


def descendant(cube: DyadicCube, path) -> DyadicCube:
    """The cube reached from ``cube`` by a child-code path."""
    for code in path:
        cube = cube.child(code)
    return cube


class Shell(NamedTuple):
    """One piece of a shell decomposition.

    ``region`` is the cube whose shell this is (the geometric region is that
    cube minus its support descendants), ``active`` is the set of support
    cubes containing every point of the shell, ``measure`` is the exact
    Lebesgue measure of the shell.
    """

    region: DyadicCube
    active: frozenset[DyadicCube]
    measure: Fraction


def _chain_in(tree: SupportTree, cube: DyadicCube) -> frozenset[DyadicCube]:
    """Support cubes of ``tree`` that contain ``cube``."""
    chain = set()
    lo = tree.root.level
    for lvl in range(lo, cube.level + 1):
        a = cube.ancestor_at(lvl)
        if a in tree.nodes:
            chain.add(a)
    return frozenset(chain)


def shell_decomposition(tree: SupportTree, region: DyadicCube) -> list[Shell]:
    """Partition ``region`` into shells on which the active support is constant.

    Returns one shell per support node inside the region (the node minus its
    support descendants) plus, when the region itself is not a support node,
    a top shell for the part of the region not covered by any support cube.
    Zero-measure shells are dropped; the returned measures sum to the measure
    of the region exactly.
    """
    root = tree.root
    if not (root.contains(region) or region.contains(root)):
        raise ValueError(f"{region} is neither inside nor an ancestor of the root")
    inside = [q for q in tree.nodes if region.contains(q)]
    inside.sort(key=lambda q: path_from(q, region))
    paths = [path_from(q, region) for q in inside]

    parent = [-1] * len(inside)
    stack: list[int] = []
    for i, pth in enumerate(paths):
        while stack and paths[stack[-1]] != pth[: len(paths[stack[-1]])]:
            stack.pop()
        parent[i] = stack[-1] if stack else -1
        stack.append(i)

    child_vol = [Fraction(0)] * len(inside)
    top_vol = Fraction(0)
    for i, q in enumerate(inside):
        if parent[i] >= 0:
            child_vol[parent[i]] += volume(q)
        else:
            top_vol += volume(q)

    shells: list[Shell] = []
    if region not in tree.nodes:
        mu_top = volume(region) - top_vol
        if mu_top != 0:
            shells.append(Shell(region, _chain_in(tree, region), mu_top))
    for i, q in enumerate(inside):
        mu = volume(q) - child_vol[i]
        if mu != 0:
            shells.append(Shell(q, _chain_in(tree, q), mu))
    return shells


def weight(seq: CubeSequence, cube: DyadicCube, s: float) -> float:
    """|Q|**(-s/n - 1/2) |t_Q| as a linear value."""
    lv = seq.log2_value(cube)
    if lv == NEG_INF:
        return 0.0
    n = seq.dim
    return 2.0 ** (cube.level * (s + n / 2.0) + lv)


def candidate_cubes(seq: CubeSequence, homogeneous: bool = True):
    """Ancestors of every support cube inside the root, plus the root."""
    seen = {}
    root = seq.root
    for cube in seq.support:
        for lvl in range(root.level, cube.level + 1):
            anc = cube.ancestor_at(lvl)
            seen[anc] = None
    seen.setdefault(root)
    out = [c for c in seen if homogeneous or c.level >= 0]
    out.sort(key=lambda c: c.sort_key())
    return out


def reference_f_value(seq, region, s, tau, p, q) -> float:
    """The single-region term of the F-type supremum, by shell integration."""
    shells = shell_decomposition(seq.tree, region)
    total = 0.0
    for shell_region, active, measure in shells:
        ws = [weight(seq, a, s) for a in active if region.contains(a)]
        ws = [w for w in ws if w > 0]
        if not ws:
            continue
        if q == INF:
            g = max(ws) ** p
        else:
            g = sum(w**q for w in ws) ** (p / q)
        total += float(measure) * g
    if total == 0.0:
        return 0.0
    return 2.0 ** (tau * seq.dim * region.level) * total ** (1.0 / p)


def reference_f_norm(seq, s, tau, p, q, homogeneous: bool = True) -> float:
    vals = [
        reference_f_value(seq, P, s, tau, p, q)
        for P in candidate_cubes(seq, homogeneous)
    ]
    return max(vals, default=0.0)


def reference_b_level_integral(seq, region, s, level, p) -> float:
    """Direct shell integration of the level-slice integrand over the region."""
    shells = shell_decomposition(seq.tree, region)
    total = 0.0
    sup = 0.0
    for shell_region, active, measure in shells:
        here = [
            weight(seq, a, s)
            for a in active
            if a.level == level and region.contains(a)
        ]
        w = here[0] if here else 0.0  # chains meet each level at most once
        if p == INF:
            if float(measure) > 0:
                sup = max(sup, w)
        else:
            total += float(measure) * w**p
    if p == INF:
        return sup
    return total ** (1.0 / p)


def reference_b_value(seq, region, s, tau, p, q, homogeneous: bool = True) -> float:
    lo = region.level if homogeneous else max(0, region.level)
    hi = max((c.level for c in seq.support), default=region.level)
    per_level = [
        reference_b_level_integral(seq, region, s, j, p) for j in range(lo, hi + 1)
    ]
    per_level = [v for v in per_level if v > 0]
    if not per_level:
        return 0.0
    if q == INF:
        agg = max(per_level)
    else:
        agg = sum(v**q for v in per_level) ** (1.0 / q)
    return 2.0 ** (tau * seq.dim * region.level) * agg


def reference_b_norm(seq, s, tau, p, q, homogeneous: bool = True) -> float:
    vals = [
        reference_b_value(seq, P, s, tau, p, q, homogeneous)
        for P in candidate_cubes(seq, homogeneous)
    ]
    return max(vals, default=0.0)


def reference_f_inf_inf(seq, s_eff) -> float:
    return max((weight(seq, c, s_eff) for c in seq.support), default=0.0)


def reference_cmo(seq, s, q, r) -> float:
    """Direct sum-based Carleson value (term-wise integration)."""
    best = 0.0
    for P in candidate_cubes(seq):
        inside = [c for c in seq.support if P.contains(c)]
        if not inside:
            continue
        if q == INF:
            val = max(weight(seq, c, s) for c in inside)
        else:
            total = sum(
                weight(seq, c, s) ** q * float(volume(c)) for c in inside
            )
            val = (2.0 ** (r * seq.dim * P.level) * total) ** (1.0 / q)
        best = max(best, val)
    return best


def reference_bbmo(seq, s, p, q) -> float:
    best = 0.0
    for P in candidate_cubes(seq):
        hi = max((c.level for c in seq.support), default=P.level)
        terms = []
        for v in range(P.level, hi + 1):
            inside = [
                c for c in seq.support if c.level == v and P.contains(c)
            ]
            if not inside:
                continue
            if p == INF:
                a = max(weight(seq, c, s) for c in inside)
            else:
                a = (
                    2.0 ** (seq.dim * P.level)
                    * sum(weight(seq, c, s) ** p * float(volume(c)) for c in inside)
                ) ** (1.0 / p)
            terms.append(a)
        if not terms:
            continue
        if q == INF:
            val = max(terms)
        else:
            val = sum(a**q for a in terms) ** (1.0 / q)
        best = max(best, val)
    return best


def small_random_sequence(rng, dim=1, depth=4, retain=0.6, span=3.0) -> CubeSequence:
    """Benign-magnitude random sequence the float oracles can handle."""
    root = DyadicCube.unit(dim)
    cubes = [root]
    frontier = [root]
    for _ in range(depth):
        nxt = []
        for cube in frontier:
            for child in cube.children():
                if rng.random() < retain:
                    nxt.append(child)
        cubes.extend(nxt)
        frontier = nxt
    values = {c: float(rng.uniform(-span, span)) for c in cubes}
    return CubeSequence.from_log2_values(values, root=root)


def reference_sample_set(seed, count, dims=(1, 2), depth_1d=10, depth_nd=5, retain=0.6):
    """``random_sample_set``'s samples one ``random_sequence`` at a time,
    from the same draws, as a list and as the ``Forest`` of that list."""
    rng = np.random.default_rng(seed)
    roots = {dim: DyadicCube.unit(dim) for dim in dims}
    seqs = []
    for i in range(count):
        dim = dims[i % len(dims)]
        depth = int(rng.integers(0, (depth_1d if dim == 1 else depth_nd) + 1))
        seqs.append(random_sequence(rng, dim, depth, retain, root=roots[dim]))
    return seqs, Forest(seqs)


def reference_jsonl(t: CubeSequence) -> str:
    """The text of ``save_jsonl``: the header, then each record as
    ``json_dumps`` writes it with sorted keys, one a line."""
    root = t.root
    header = {"dim": t.dim, "root": {"j": root.level, "k": list(root.index)}, "depth": t.max_depth}
    lines = [json_dumps(header, sort_keys=True)]
    for level, index, lv in t._records():
        rec = {"j": level, "k": list(index), "v": log2_to_linear(lv), "log2v": lv}
        lines.append(json_dumps(rec, sort_keys=True))
    return "\n".join(lines) + "\n"


def reference_candidates(seq: CubeSequence):
    """Every dyadic subcube of the root containing a support cube, plus the
    root, each with the depth-first range [lo, hi) of the support inside it.

    Enumerates every ancestor prefix of every support path as a tuple and
    builds each cube child by child: O(m * depth) cubes.
    """
    root = seq.root
    paths = sorted(path_from(q, root) for q in seq.support)
    prefixes = {()}
    for pth in paths:
        for cut in range(len(pth) + 1):
            prefixes.add(pth[:cut])
    sentinel = 1 << seq.dim
    return [
        (descendant(root, pth), bisect_left(paths, pth), bisect_left(paths, pth + (sentinel,)))
        for pth in sorted(prefixes)
    ]


def reference_supremum(seq: CubeSequence, kern, homogeneous: bool = True, candidates=None):
    """A production kernel maximized over ``reference_candidates``.

    Returns the log2 supremum, the cube attaining it (ties to the coarsest
    level, then the smallest index) and the value of every candidate.
    """
    if candidates is None:
        candidates = reference_candidates(seq)
    kept = [c for c in candidates if homogeneous or c[0].level >= 0]
    if not kept:
        return NEG_INF, seq.root, {}
    cubes, lo, hi = zip(*kept)
    level = [c.level for c in cubes]
    contents = kern.contents(*(np.array(x, dtype=np.int64) for x in (lo, hi, level)))
    values = {
        cube: kern.slope * cube.level + float(x) for cube, x in zip(cubes, contents)
    }
    best = max(values.values())
    cube = min((c for c, v in values.items() if v == best), key=DyadicCube.sort_key)
    return best, cube, values


def locate(geo, cube: DyadicCube) -> tuple[int, int] | None:
    """Depth-first range [lo, hi) of the support nodes inside an arbitrary
    cube, in a forest of one; None when the cube is disjoint from the
    root."""
    if cube.contains(geo.root):
        return 0, geo.m
    if not geo.root.contains(cube):
        return None
    n, d = geo.dim, cube.level - geo.min_level
    if d > geo.depth:  # finer than every support node
        return 0, 0
    shift = n * (geo.depth - d)
    key = morton_paths(geo.root, [cube.index], [d])[0] << shift
    lo = bisect_left(geo.key, key)
    lo = bisect_left(geo.node_depth, d, lo, bisect_right(geo.key, key, lo))
    return lo, bisect_left(geo.key, key + (1 << shift), lo)


def candidate_value(t: CubeSequence, params: SpaceParams, region: DyadicCube) -> float:
    """The single-cube term of the outer supremum, as a log2 value.

    Accepts any dyadic cube that is comparable to the root (inside it, equal
    to it, or an ancestor of it); cubes disjoint from the root give -inf.
    """
    geo = t.geometry
    span = locate(geo, region)
    if span is None:
        return NEG_INF
    kern = _kernel(params, geo)
    lo, hi, level = (np.array([x]) for x in (*span, region.level))
    return float(kern.slope * region.level + kern.contents(lo, hi, level)[0])


def shell_measures(geo) -> np.ndarray:
    """log2 of each node's volume minus the volume of its support children,
    exact in integer arithmetic at the finest child's scale."""
    n = geo.dim
    depth = geo.node_depth
    shifts: dict[int, list[int]] = {}
    for c, par in enumerate(geo.parent.tolist()):
        if par >= 0:
            shifts.setdefault(par, []).append(n * (depth[c] - depth[par]))
    mu = geo.log2vol.copy()
    for par, sh in shifts.items():
        top = max(sh)
        rest = (1 << top) - sum(1 << (top - s) for s in sh)
        mu[par] = math.log2(rest) - top + mu[par] if rest > 0 else NEG_INF
    return mu


def _log2_sum(terms) -> float:
    """log2 of sum(2**t), one positive term at a time in plain floats."""
    total = NEG_INF
    for t in terms:
        hi, lo = max(total, t), min(total, t)
        total = hi if lo == NEG_INF else hi + math.log2(1.0 + 2.0 ** (lo - hi))
    return total


def loop_f_contents(geo, s, p, q, lo, hi):
    """F-type contents of the ranges [lo, hi), one cube at a time: every
    chain is re-accumulated from the top of the range down, in plain floats.
    The per-candidate loop the batched kernel replaced."""
    n = geo.dim
    logw = [lv * (s + n / 2.0) + t for lv, t in zip(geo.level.tolist(), geo.log2t.tolist())]
    parent, mu = geo.parent.tolist(), geo.mu_log2.tolist()
    out = []
    for a, b in zip(lo.tolist(), hi.tolist()):
        chain, terms = {}, []
        for i in range(a, b):
            w = logw[i] if q == INF else q * logw[i]
            up = chain.get(parent[i], NEG_INF) if parent[i] >= a else NEG_INF
            chain[i] = max(up, w) if q == INF else _log2_sum((up, w))
            if mu[i] > NEG_INF:
                terms.append(mu[i] + (p if q == INF else p / q) * chain[i])
        out.append(_log2_sum(terms) / p)
    return out


def loop_b_contents(geo, s, p, q, lo, hi, level, homogeneous=True):
    """B-type contents of the ranges [lo, hi) at the given levels, one cube
    at a time: per-level sums (maxima at p = inf), then their l^q norm."""
    n = geo.dim
    levels = geo.level.tolist()
    logw = [lv * (s + n / 2.0) + t for lv, t in zip(levels, geo.log2t.tolist())]
    out = []
    for a, b, lv in zip(lo.tolist(), hi.tolist(), level.tolist()):
        start = lv if homogeneous else max(lv, 0)
        per_level = {}
        for i in range(a, b):
            if levels[i] >= start:
                z = logw[i] if p == INF else p * logw[i] - n * levels[i]
                per_level.setdefault(levels[i], []).append(z)
        aggs = [max(z) if p == INF else _log2_sum(z) / p for z in per_level.values()]
        if q == INF:
            out.append(max(aggs, default=NEG_INF))
        else:
            out.append(_log2_sum(q * x for x in aggs) / q)
    return out


def _unit_subcubes(dim: int, max_level: int):
    for j in range(0, max_level + 1):
        for idx in np.ndindex(*((1 << j,) * dim)):
            yield DyadicCube(dim, j, tuple(int(k) for k in idx))


def _block(arr: np.ndarray, cube: DyadicCube, L: int) -> np.ndarray:
    step = 1 << (L - cube.level)
    slices = tuple(slice(k * step, (k + 1) * step) for k in cube.index)
    return arr[slices]


def reference_function_norm(f, bank, params, max_level: int):
    """``analyze.function_norm`` one cube at a time: every dyadic subcube of
    [0,1)**dim down to ``max_level`` as a ``DyadicCube``, its block sliced out
    of each band-pass.  Returns the log2 norm, the cube attaining it (ties to
    the coarsest level, then the smallest index) and every cube's value."""
    L, dim = f.log_resolution, f.dim
    s, tau = float(params.s), float(params.tau)
    p, q = float(params.p), float(params.q)
    h_n = (1.0 / (1 << L)) ** dim
    levels = list(range(0, max_level + 1))
    mags = [np.abs(lp_convolve(f, bank, j).samples) for j in levels]
    values = {}
    if params.family == Family.F_TYPE:
        if q == INF:
            stack = np.stack([(2.0 ** (j * s)) * mags[j] for j in levels])
            suffix = np.maximum.accumulate(stack[::-1], axis=0)[::-1]
        else:
            stack = np.stack([(2.0 ** (j * s * q)) * mags[j] ** q for j in levels])
            suffix = np.cumsum(stack[::-1], axis=0)[::-1]
        for cube in _unit_subcubes(dim, max_level):
            g = _block(suffix[cube.level], cube, L)
            integral = float(np.sum(g ** (p if q == INF else p / q))) * h_n
            values[cube] = (
                NEG_INF if integral <= 0.0
                else tau * dim * cube.level + math.log2(integral) / p
            )
    else:
        for cube in _unit_subcubes(dim, max_level):
            per_level = []
            for j in range(cube.level, max_level + 1):
                block = _block(mags[j], cube, L)
                if p == INF:
                    v = float(block.max())
                else:
                    v = (float(np.sum(block**p)) * h_n) ** (1.0 / p)
                per_level.append((2.0 ** (j * s)) * v)
            arr = np.array(per_level)
            if q == INF:
                agg = float(arr.max())
            else:
                agg = float(np.sum(arr**q)) ** (1.0 / q)
            weight = 2.0 ** (tau * dim * cube.level)
            values[cube] = NEG_INF if agg == 0.0 else math.log2(weight * agg)
    best = max(values.values())
    cube = min((c for c, v in values.items() if v == best), key=DyadicCube.sort_key)
    return best, cube, values


def _full_radii(dim: int, L: int) -> np.ndarray:
    freqs = np.fft.fftfreq(1 << L) * (1 << L)
    return np.sqrt(sum(g * g for g in np.meshgrid(*(freqs,) * dim, indexing="ij")))


def full_spectrum_band_pass(f: GridFunction, bank, j: int) -> np.ndarray:
    """The level-j band-pass's samples from ``fftn``, the profile on every
    bin and ``ifftn``; the real part for a real f."""
    assert j in bank.valid_levels
    mult = annulus_profile(_full_radii(f.dim, f.log_resolution) / float(1 << j))
    out = np.fft.ifftn(np.fft.fftn(f.samples) * mult)
    return out if f.is_complex else out.real


def full_spectrum_band_limit_fraction(f: GridFunction, max_level: int) -> float:
    """The share of ``fftn`` energy at radii beyond 2**(max_level + 1)."""
    power = np.abs(np.fft.fftn(f.samples)) ** 2
    total = float(power.sum())
    if total == 0.0:
        return 0.0
    radii = _full_radii(f.dim, f.log_resolution)
    return float(power[radii > float(1 << (max_level + 1))].sum()) / total


def reference_random_bandlimited(dim, L, rng, n_modes=20, j_hi=None):
    """``GridFunction.random_bandlimited`` as a direct sum: the same draws in
    the same order, each mode's cosine evaluated on the whole grid.  Returns
    the samples and the drawn (mode, amplitude, phase) triples."""
    if j_hi is None:
        j_hi = L - 3
    m_max = 1 << j_hi
    grid = _grids(dim, L)
    samples = np.zeros(((1 << L),) * dim)
    drawn = []
    while len(drawn) < n_modes:
        mode = tuple(int(v) for v in rng.integers(-m_max, m_max + 1, size=dim))
        radius = math.sqrt(sum(m * m for m in mode))
        if radius < 1 or radius > m_max:
            continue
        amp = float(rng.uniform(0.5, 1.5))
        phase = float(rng.uniform(0.0, 2 * np.pi))
        arg = sum(m * g for m, g in zip(mode, grid))
        samples += amp * np.cos(2 * np.pi * arg + phase)
        drawn.append((mode, amp, phase))
    return samples, drawn


def reference_sawtooth_smoothed(L):
    """``GridFunction.sawtooth_smoothed`` as a direct sum of its sines.
    Returns the samples and the coefficients, mode m at index m - 1."""
    M = 1 << (L - 3)
    x = _grids(1, L)[0]
    samples = np.zeros(1 << L)
    coefficients = []
    for m in range(1, M + 1):
        c = math.exp(-3.0 * (m / M) ** 2) / m
        samples += c * np.sin(2 * np.pi * m * x)
        coefficients.append(c)
    return samples, coefficients


def reference_certify(s, p, q, tau, n=1, depths=(4, 8, 16, 32, 64), family="f"):
    """``certify_separation``'s two reports, each tower evaluated alone, for
    parameters inside the counterexample's region."""
    s, p, q, tau = float(s), float(p), float(q), float(tau)
    tau_prime = tau + inv(q) - inv(p)
    coarse = SpaceParams(Family.B_TYPE, s, tau_prime, q, q)
    target = SpaceParams(Family.F_TYPE if family == "f" else Family.B_TYPE, s, tau, p, q)
    div_vals, tgt_vals = [], []
    for J in depths:
        tower = build_tower(s, tau, p, n, J).sequence
        div_vals.append(b_type_norm(tower, coarse, allow_negative_tau=True).log2_value)
        tgt_vals.append(norm(tower, target).log2_value)
    boundary = q < INF and abs(tau - (inv(p) - 1.0 / q)) < 1e-12
    divergent = witness._divergence_report(
        f"b^(s,{tau_prime:g})_({q:g},{q:g})", depths, div_vals, 1.0 / q if boundary else None
    )
    if family == "f":
        bound = separation_f_bound_log2(tau, p, n)
    else:
        bound = separation_b_bound_log2(tau, q, n)
    bounded = witness._bounded_report(
        f"{family}^(s,{tau:g})_({p:g},{q:g})", depths, tgt_vals, bound
    )
    return divergent, bounded


def saturated_tree_sequence(
    dim: int, depth: int, delta: float, s: float = 0.0
) -> CubeSequence:
    """Every cube of the unit tree to the given depth, equal effective weights.

    Magnitudes are chosen so |Q|**(-s/n - delta - 1/2) |t_Q| = 1 on every
    cube; this family attains the upper collapse constant as depth grows.
    """
    root = DyadicCube.unit(dim)
    exponent = float(s) + dim / 2.0 + dim * float(delta)
    values: dict[DyadicCube, float] = {}
    frontier = [root]
    values[root] = 0.0
    for j in range(1, depth + 1):
        nxt = []
        for cube in frontier:
            for child in cube.children():
                values[child] = -j * exponent
                nxt.append(child)
        frontier = nxt
    return CubeSequence.from_log2_values(values, root=root, max_depth=depth)


def saturated_ratio_log2(q: float, delta: float, n: int, depth: int) -> float:
    """Closed-form log2 ratio (norm over weighted-sup norm) of the saturated tree."""
    alpha = float(q) * float(delta) * n
    if float(q) == INF:
        return 0.0
    return (
        math.log2(sum(2.0 ** (-j * alpha) for j in range(depth + 1)))
    ) / float(q)


def _ratios(*pairs: tuple[float, float]) -> tuple[float, ...]:
    """Linear ratios of (numerator, denominator) log2 norm pairs; a pair that
    is zero on both sides has no ratio."""
    return tuple(
        log2_to_linear(num - den)
        for num, den in pairs
        if not (num == NEG_INF and den == NEG_INF)
    )


def reference_report(check, num, den, lower_constant, upper_constant, tol, ordered=False):
    """The report of ``equivalence._report`` for the same arrays, a sample at
    a time: each sample's ratios a tuple (sorted with ``ordered``), its CSV
    row its first and last ratio, and the worst ratios running extremes."""
    ratios = []
    for nums, dens in zip(np.asarray(num).tolist(), np.asarray(den).tolist()):
        sample = _ratios(*zip(nums, dens))
        ratios.append(tuple(sorted(sample)) if ordered else sample)
    worst_low = INF
    worst_high = -INF
    rows = []
    n = 0
    for i, sample in enumerate(ratios):
        n += 1
        if sample:
            worst_low = min(worst_low, *sample)
            worst_high = max(worst_high, *sample)
            rows.append((i, sample[0], sample[-1]))
    if not rows:
        worst_low = worst_high = lower_constant
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


def reference_sanitize(obj):
    """RFC-compliant JSON: infinities become 'inf'/'-inf' strings."""
    if isinstance(obj, dict):
        return {k: reference_sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [reference_sanitize(v) for v in obj]
    if isinstance(obj, float) and math.isinf(obj):
        return "inf" if obj > 0 else "-inf"
    return obj


def _fraction_text(obj):
    if isinstance(obj, Fraction):
        return str(obj)
    raise TypeError(f"not JSON serializable: {obj!r}")


def reference_json_text(doc) -> str:
    """The CLI's JSON text of ``doc``: sanitized, then ``json_dumps`` with
    sorted keys and an indent of 2, Fractions as text, and a newline."""
    return json_dumps(
        reference_sanitize(doc), sort_keys=True, indent=2, default=_fraction_text
    ) + "\n"
