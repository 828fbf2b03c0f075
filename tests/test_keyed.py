"""The keyed constructor against ``from_records``, and the float shell
measures against the integer oracle.

The generators, the analyzer and the tower hand Z-order paths straight to
``CubeSequence._from_paths``; each must give the arrays that validating the
same records through ``from_records`` gives.  ``Geometry._shell_measures``
must equal the integer loop of ``_oracles.shell_measures`` bit for bit.
"""
import json
import math
import random
from itertools import compress

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyadic_spaces import (
    CubeSequence,
    DyadicCube,
    Forest,
    GridFunction,
    build_filter_bank,
    coefficients,
    load_jsonl,
    random_sample_set,
)
from dyadic_spaces import _geometry
from dyadic_spaces._geometry import Geometry
from dyadic_spaces.analyze import band_magnitudes
from dyadic_spaces.seqspace import SequenceFormatError
from dyadic_spaces.witness import build_tower

from _oracles import saturated_tree_sequence, shell_measures, zero_sequence


def same_arrays(a: CubeSequence, b: CubeSequence) -> None:
    assert (a.root, a.max_depth, a._width) == (b.root, b.max_depth, b._width)
    assert a._key == b._key
    assert a._node_depth == b._node_depth
    assert a._log2t.tobytes() == b._log2t.tobytes()


# -- random sample sets -------------------------------------------------------


def record_sequence(rng, dim: int, max_depth: int, retain: float) -> CubeSequence:
    """``random_sequence`` on cubes, through ``from_records``: the same draws,
    a level's children in child-code order."""
    root = DyadicCube.unit(dim)
    cubes, frontier = [root], [root]
    for _ in range(max_depth):
        children = [c for cube in frontier for c in cube.children()]
        frontier = list(compress(children, (rng.random(size=len(children)) < retain).tolist()))
        if not frontier:
            break
        cubes += frontier
    log2t = rng.uniform(-20.0, 20.0, size=len(cubes))
    return CubeSequence.from_records(
        root, [c.level for c in cubes], [c.index for c in cubes], log2t, max_depth
    )


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(1, 3),
    depth=st.integers(0, 10),
    retain=st.floats(0.05, 0.9),
)
def test_sample_sets_match_from_records(seed, dim, depth, retain):
    # keep the expected tree size small: (2**dim * retain)**depth <= 2**11
    retain = min(retain, 2.0 ** (11 / max(depth, 1) - dim))
    got = random_sample_set(seed, 6, dims=(dim,), depth_1d=depth, depth_nd=depth, retain=retain)
    rng = np.random.default_rng(seed)
    for seq in got:
        want = record_sequence(rng, dim, int(rng.integers(0, depth + 1)), retain)
        same_arrays(seq, want)


# -- the analyzer -------------------------------------------------------------


def record_coefficients(f, bank, max_level: int) -> CubeSequence:
    """``coefficients`` as the records of each level's nonzero corners."""
    bands = band_magnitudes(f, bank, max_level)
    L, dim = f.log_resolution, f.dim
    levels, indices, log2_values = [], [], []
    for j in range(max_level + 1):
        corners = bands[j][(slice(None, None, 1 << (L - j)),) * dim]
        mags = corners * 2.0 ** (-j * dim / 2.0)
        found = np.argwhere(mags > 0.0).tolist()
        levels += [j] * len(found)
        indices += found
        log2_values += map(math.log2, mags[mags > 0.0].tolist())
    return CubeSequence.from_records(DyadicCube.unit(dim), levels, indices, log2_values, max_level)


# every (signal, dim, L, max_level) the analyzer tests and the CLI runs use
ANALYZER_SHAPES = [
    ("zeros", 1, 8, 5),
    ("harmonic", 1, 8, 6),
    ("harmonic", 1, 8, 4),
    ("harmonic", 1, 10, 8),
    ("harmonic", 2, 6, 4),
    ("random", 1, 6, 4),
    ("random", 1, 8, 6),
    ("random", 1, 9, 5),
    ("random", 1, 10, 8),
    ("random", 1, 11, 9),
    ("random", 2, 7, 5),
    ("random", 2, 8, 6),
    ("sawtooth", 1, 9, 7),
    ("sawtooth", 1, 11, 9),
]


@pytest.mark.parametrize("signal,dim,L,max_level", ANALYZER_SHAPES)
def test_coefficients_match_from_records(signal, dim, L, max_level):
    if signal == "zeros":
        f = GridFunction.zeros(dim, L)
    elif signal == "harmonic":
        f = GridFunction.harmonic(dim, L, 4 if dim > 1 else 8)
    elif signal == "random":
        f = GridFunction.random_bandlimited(dim, L, np.random.default_rng(L), j_hi=L - 3)
    else:
        f = GridFunction.sawtooth_smoothed(dim, L)
    bank = build_filter_bank(L)
    same_arrays(coefficients(f, bank, max_level), record_coefficients(f, bank, max_level))


# -- towers -------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("J", [0, 1, 7, 64])
def test_towers_match_from_records(n, J):
    tower = build_tower(0.25, 0.5, 1, n, J)
    exponent = 0.25 + n / 2.0 + n * (0.5 - 1.0)
    want = CubeSequence.from_records(
        DyadicCube.unit(n), range(J + 1), [(0,) * n] * (J + 1),
        [-j * exponent for j in range(J + 1)], J,
    )
    same_arrays(tower.sequence, want)


def test_records_with_zeros_and_duplicates():
    """Zero records are dropped after the sort and the keys narrowed; a
    duplicate is found whichever of the two is zero."""
    root = DyadicCube.unit(2)
    seq = CubeSequence.from_records(root, [1, 3, 2], [(1, 0), (5, 7), (2, 1)], [1.0, -math.inf, 2.0])
    assert (seq._width, seq.max_depth, seq._node_depth) == (2, 3, [1, 2])
    same_arrays(seq, CubeSequence.from_records(root, [1, 2], [(1, 0), (2, 1)], [1.0, 2.0], 3))
    for values in ([1.0, -math.inf], [-math.inf, 1.0], [-math.inf, -math.inf]):
        with pytest.raises(ValueError, match=r"duplicate record for Q\(j=2, k=\[3, 1\]\)"):
            CubeSequence.from_records(root, [1, 2, 2], [(1, 0), (3, 1), (3, 1)], [0.0, *values])


# -- shell measures -----------------------------------------------------------


def assert_exact_shells(geo: Geometry) -> None:
    """Bit-identical to the oracle, with numpy's float path taken from the
    geometry's size as usual, then at every size, then at none."""
    want = shell_measures(geo).tobytes()
    assert geo.mu_log2.tobytes() == want
    default = _geometry._NUMPY_SHELLS
    try:
        for size in (0, 1 << 62):
            _geometry._NUMPY_SHELLS = size
            assert geo._shell_measures().tobytes() == want, size
    finally:
        _geometry._NUMPY_SHELLS = default


@pytest.mark.parametrize("dim,depth", [(1, 0), (1, 1), (1, 9), (2, 5), (3, 3)])
def test_shells_of_saturated_trees(dim, depth):
    geo = saturated_tree_sequence(dim, depth, 0.5).geometry
    if depth:  # rest = 0 under every full parent
        assert np.isneginf(geo.mu_log2).sum() == (2**(dim * depth) - 1) // (2**dim - 1)
    assert_exact_shells(geo)


@pytest.mark.parametrize("n,J", [(1, 0), (1, 60), (2, 30), (3, 2048)])
def test_shells_of_towers(n, J):
    assert_exact_shells(build_tower(0, 0.5, 1, n, J).sequence.geometry)


@pytest.mark.parametrize("dims", [(1,), (2,), (3,), (1, 2)])
def test_shells_of_forests(dims):
    seqs = list(random_sample_set(3, 40, dims=dims, depth_1d=9, depth_nd=3))
    seqs.append(zero_sequence(DyadicCube.unit(dims[0])))
    for _, geo in Forest(seqs)._groups:
        assert_exact_shells(geo)


def test_shells_of_a_deep_sparse_field():
    """The 200000-level field of the kernel-memory test, with the root added:
    the root's one child lies 199980 levels down, so its parent takes the
    integer path, the chain below it the float path."""
    rng = random.Random(5)
    k = rng.getrandbits(200000)
    values = {DyadicCube(1, j, (k >> (200000 - j),)): rng.uniform(-3, 3)
              for j in range(199980, 200001)}
    for extra in ({}, {DyadicCube(1, 0, (0,)): 1.0}):
        geo = CubeSequence.from_log2_values({**values, **extra}, root=DyadicCube(1, 0, (0,))).geometry
        assert_exact_shells(geo)
    child = np.flatnonzero(geo.parent >= 0)
    assert (geo.level[child] - geo.level[geo.parent[child]]).max() > 52


@pytest.mark.parametrize("top", [52, 53, 54, 80])
def test_shells_at_the_float_limit(top):
    """A comb under the root: children [2**-s, 2**(1-s)) for s < top - 1 and
    [0, 2**-top) leave rest = 3 at the scale 2**-top.  In float64 the last
    term would round the sum 2**top - 3 once top > 53."""
    root = DyadicCube(1, 0, (0,))
    values = {root: 0.0, DyadicCube(1, top, (0,)): 1.0}
    values.update({DyadicCube(1, s, (1,)): float(s) for s in range(1, top - 1)})
    geo = CubeSequence.from_log2_values(values, root=root).geometry
    assert geo.mu_log2[0] == math.log2(3) - top
    assert_exact_shells(geo)


def test_shells_with_wide_and_narrow_parents_in_two_dims():
    root = DyadicCube.unit(2)
    values = {root: 0.0, DyadicCube(2, 1, (1, 1)): 1.0, DyadicCube(2, 30, (5, 9)): 2.0,
              DyadicCube(2, 26, (1, 2)): 3.0, DyadicCube(2, 27, (2, 4)): 4.0,
              DyadicCube(2, 27, (3, 5)): 5.0, DyadicCube(2, 60, (2**60 - 1, 7)): 6.0}
    assert_exact_shells(CubeSequence.from_log2_values(values, root=root).geometry)


# -- JSONL --------------------------------------------------------------------


def test_load_jsonl_takes_one_value_per_line(tmp_path):
    """Joined into one array, these lines parse as valid records; one by
    one, the first is unterminated, so a bulk parse cannot stand in for the
    line loop."""
    lines = [
        json.dumps({"dim": 1, "root": {"j": 0, "k": [0]}, "depth": 2}),
        '{"j": 0, "k": [0], "v": 1, "x": "a',
        'b"}',
        '{"j": 1, "k": [0], "v": 1}],[{"j": 1, "k": [1], "v": 1}',
    ]
    rows = json.loads("[[" + "],[".join(lines) + "]]")
    assert [len(row) for row in rows] == [1, 1, 1, 1]
    path = tmp_path / "joined.jsonl"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SequenceFormatError, match=r": line 2: Unterminated string"):
        load_jsonl(path)
