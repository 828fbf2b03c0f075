"""The array compile and the int64 sort against the Python reference passes.

``Geometry._compile`` takes the array pass for geometries of at least
``_NUMPY_COMPILE`` nodes whose (segment, key, depth) triples fit in 62 bits
with keys of at most 52, and the stack pass otherwise; ``depth_first`` sorts
as one int64 array, and ``morton_paths`` builds int64 paths, from
``_NUMPY_SHELLS`` records when the keys fit in 62 bits.  Each side of every
dispatch is forced by setting the module constants, and the two sides must
give the same arrays, in the same order, or the same error.
"""
import math
import random
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyadic_spaces import CubeSequence, DyadicCube, random_sample_set, saturated_tree_sequence
from dyadic_spaces import _geometry
from dyadic_spaces._geometry import Geometry, depth_first, morton_paths
from dyadic_spaces.witness import build_tower

COMPILED = ("seg_cand", "parent", "sdepth", "cand_level", "cand_lo", "cand_hi", "gap_lo")


@contextmanager
def numpy_from(size: int):
    """Take the numpy paths from ``size`` nodes up."""
    default = _geometry._NUMPY_SHELLS, _geometry._NUMPY_COMPILE
    _geometry._NUMPY_SHELLS = _geometry._NUMPY_COMPILE = size
    try:
        yield
    finally:
        _geometry._NUMPY_SHELLS, _geometry._NUMPY_COMPILE = default


def compiled(root: DyadicCube, segments, size: int) -> dict:
    with numpy_from(size):
        geo = Geometry(root, segments)
    out = {name: getattr(geo, name).tolist() for name in COMPILED}
    out["cand_key"] = list(geo.cand_key)
    assert all(type(k) is int for k in out["cand_key"])
    return out


def assert_same_compile(root: DyadicCube, seqs) -> None:
    segments = [s._segment for s in seqs]
    assert compiled(root, segments, 0) == compiled(root, segments, 1 << 62)


def fits(n: int, width: int, segments: int) -> bool:
    """Whether the array pass takes a geometry of that shape."""
    return n * width <= 52 and segments.bit_length() + n * width + width.bit_length() <= 62


@st.composite
def forests(draw):
    """Sequences under one root, clustered around one random path so that
    chains, branch points and root support nodes are common; some segments
    are empty or all zeros, and the deepest record sits at a width on
    either side of the 52- and 62-bit limits."""
    n = draw(st.integers(1, 3))
    root = DyadicCube(n, draw(st.sampled_from([-3, 0, 5])),
                      tuple(draw(st.integers(-2, 2)) for _ in range(n)))
    width = draw(st.sampled_from([1, 3, 8, 52 // n, 52 // n + 1, 62 // n]))
    count = draw(st.sampled_from([1, 2, 5, 15, 16]))
    trunk = [draw(st.integers(0, 2**width - 1)) for _ in range(n)]
    seqs = []
    for s in range(count):
        levels, indices, log2t = [], [], []
        cubes = set()
        for _ in range(draw(st.integers(0, 12))):
            d = draw(st.integers(0, width))
            rel = [((t >> (width - d)) ^ draw(st.integers(0, 3))) % (1 << d) for t in trunk]
            cube = (d, tuple((r << d) + k for r, k in zip(root.index, rel)))
            if cube not in cubes:
                cubes.add(cube)
                levels.append(root.level + d)
                indices.append(cube[1])
                log2t.append(draw(st.sampled_from([-math.inf, 0.0, 1.5])))
        if s == 0:  # one record at the full width, so the forest is that wide
            rel = [t % (1 << width) for t in trunk]
            cube = (width, tuple((r << width) + k for r, k in zip(root.index, rel)))
            if cube not in cubes:
                levels.append(root.level + width)
                indices.append(cube[1])
                log2t.append(0.5)
        seqs.append(CubeSequence.from_records(root, levels, indices, log2t, width))
    return root, seqs


@given(forests())
@settings(max_examples=120, deadline=None)
def test_arrays_match_stack_pass_on_forests(forest):
    root, seqs = forest
    assert_same_compile(root, seqs)


@pytest.mark.parametrize("dim,depth", [(1, 10), (2, 5), (3, 3), (1, 0)])
def test_arrays_match_stack_pass_on_saturated_trees(dim, depth):
    seq = saturated_tree_sequence(dim, depth, 0.5)
    assert_same_compile(seq.root, [seq])


@pytest.mark.parametrize("n,J", [(1, 1), (1, 52), (2, 26), (3, 17)])
def test_arrays_match_stack_pass_on_towers(n, J):
    seq = build_tower(0, 0.5, 1, n, J).sequence
    assert_same_compile(seq.root, [seq])


@pytest.mark.parametrize("dims", [(1,), (2,), (3,)])
def test_arrays_match_stack_pass_on_sample_sets(dims):
    seqs = list(random_sample_set(5, 30, dims=dims, depth_1d=9, depth_nd=3))
    seqs.insert(7, CubeSequence.zero(DyadicCube.unit(dims[0])))
    assert_same_compile(DyadicCube.unit(dims[0]), seqs)


def comb(n: int, width: int) -> CubeSequence:
    """The root and, on each level down to the width, every child of the
    level above's first cube: 1 + 2**n * width nodes."""
    levels, indices = [0], [(0,) * n]
    for d in range(1, width + 1):
        levels += [d] * (1 << n)
        indices += [tuple(c >> axis & 1 for axis in range(n)) for c in range(1 << n)]
    return CubeSequence.from_records(DyadicCube.unit(n), levels, indices, [0.0] * len(levels))


@pytest.mark.parametrize("n,width,segments", [
    (1, 52, 1), (1, 53, 1), (2, 26, 1), (2, 27, 1), (3, 17, 1), (3, 18, 1),
    (1, 52, 15), (1, 52, 16), (2, 26, 31), (2, 26, 32),
])
def test_dispatch_at_the_width_limits(n, width, segments, monkeypatch):
    """The array pass runs exactly where the keys fit, whatever the node
    count, and its arrays match the stack pass's."""
    seqs = [comb(n, width)] * segments
    monkeypatch.setattr(_geometry, "_NUMPY_COMPILE", 0)
    ran = []
    arrays = Geometry._compile_arrays
    monkeypatch.setattr(Geometry, "_compile_arrays", lambda geo: ran.append(1) or arrays(geo))
    Geometry(seqs[0].root, [s._segment for s in seqs])
    assert bool(ran) == fits(n, width, segments)
    assert_same_compile(seqs[0].root, seqs)


def test_small_geometries_take_the_stack_pass(monkeypatch):
    ran = []
    arrays = Geometry._compile_arrays
    monkeypatch.setattr(Geometry, "_compile_arrays", lambda geo: ran.append(1) or arrays(geo))
    for m in (1, _geometry._NUMPY_COMPILE - 2, _geometry._NUMPY_COMPILE - 1,
              _geometry._NUMPY_COMPILE):  # m cubes side by side, 7 levels down
        CubeSequence.from_records(DyadicCube.unit(1), [7] * m, [(i,) for i in range(m)],
                                  [0.0] * m).geometry
    assert len(ran) == 1


# -- depth-first sort ----------------------------------------------------------


def sorted_both(root, paths, depths, keep):
    """``depth_first`` on both paths: its result, or its error message."""
    out = []
    for size in (0, 1 << 62):
        with numpy_from(size):
            try:
                out.append(depth_first(root, paths, depths, np.array(keep, dtype=bool)))
            except ValueError as exc:
                out.append(str(exc))
    return out


@given(
    st.integers(1, 3),
    st.sampled_from([-2, 0, 3]),
    st.sampled_from([0, 4, 20, 56]),
    st.lists(st.tuples(st.integers(0, 1 << 62), st.integers(0, 100), st.booleans()),
             max_size=60),
    st.sampled_from([0, 0, 0, 1, 2]),
)
@settings(max_examples=150, deadline=None)
def test_int64_sort_matches_python_sort(n, level, width, records, repeats):
    """Random paths at random depths up to the width, some records dropped
    (zeros), and up to two records given twice: the message names the
    first duplicate in depth-first order."""
    root = DyadicCube(n, level, (1,) * n)
    unique = {}
    for p, d, k in records:
        d %= width + 1
        unique[p % (1 << n * d), d] = k
    paths, depths, keep = [p for p, _ in unique], [d for _, d in unique], list(unique.values())
    for i in range(min(repeats, len(unique))):
        paths.append(paths[i])
        depths.append(depths[i])
        keep.append(not keep[i])
    got, want = sorted_both(root, paths, depths, keep)
    if len(set(zip(paths, depths))) < len(paths):
        assert isinstance(want, str) and want.startswith("duplicate record for Q(")
    assert got == want


@pytest.mark.parametrize("n,width,int64", [(1, 56, True), (1, 57, False), (3, 19, True),
                                           (3, 20, False)])
def test_int64_sort_at_the_width_limit(n, width, int64, monkeypatch):
    ran = []
    sort = _geometry._depth_first_int64
    monkeypatch.setattr(_geometry, "_depth_first_int64", lambda *a: ran.append(1) or sort(*a))
    root = DyadicCube.unit(n)
    depths = [width - d % 3 for d in range(50)]
    paths = [(7 * d + 3) % (1 << n * depths[d]) for d in range(50)]
    keep = np.array(depths) < width  # dropping the deepest records narrows the keys
    assert depth_first(root, paths, depths, keep) == sorted_both(root, paths, depths, keep)[1]
    assert bool(ran) == int64
    paths[9] = paths[0]
    depths[9] = depths[0]
    got, want = sorted_both(root, paths, depths, keep)
    assert got == want and want.startswith("duplicate record for Q(")


# -- Morton paths --------------------------------------------------------------


def paths_both(root, indices, depth):
    """``morton_paths`` on both branches, as lists of ints (None when an
    index lies outside the root)."""
    out = []
    for size in (0, 1 << 62):
        with numpy_from(size):
            paths = morton_paths(root, indices, depth)
        out.append(None if paths is None else list(map(int, paths)))
    return out


@pytest.mark.parametrize("n,r,width,int64", [
    (1, 0, 62, True), (2, -3, 31, True), (3, 5, 20, True), (2, 0, 40, False),
    (1, 1 << 61, 40, False), (2, 1 << 40, 30, False),
])
def test_morton_paths_on_both_branches(n, r, width, int64, monkeypatch):
    """Lists and int64 arrays give the same paths on both branches.  Keys
    wider than 62 bits, and indices past int64 under a root far from 0,
    take the Python ints whatever the size; an index moved outside the
    root gives None on both."""
    ran = []
    build = _geometry._morton_paths_int64
    monkeypatch.setattr(_geometry, "_morton_paths_int64", lambda *a: ran.append(1) or build(*a))
    root = DyadicCube(n, 0, (r,) * n)
    rng = random.Random(n * width)
    depth = [width] + [rng.randint(0, width) for _ in range(49)]
    indices = [tuple((r << d) + rng.randrange(1 << d) for _ in range(n)) for d in depth]
    got, want = paths_both(root, indices, depth)
    assert got == want and bool(ran) == int64
    if int64:
        arrays = np.array(indices, dtype=np.int64), np.array(depth, dtype=np.int64)
        assert paths_both(root, *arrays) == [want, want]
    indices[7] = (indices[7][0] + (1 << depth[7]), *indices[7][1:])
    assert paths_both(root, indices, depth) == [None, None]
