"""Leaf chains: the suffix pass of the B, BBMO and CMO kernels and the stack
of prefix maxima of F at q = inf, against the per-cube loops, on towers,
caterpillars (long tails hanging under a spine of branch points) and
forests that mix them with random samples."""
import math
import random

import numpy as np
import pytest

from dyadic_spaces import (
    CubeSequence,
    DyadicCube,
    Family,
    Forest,
    SpaceParams,
    _kernels,
    random_sequence,
)
from dyadic_spaces._geometry import _MIN_CHAIN
from dyadic_spaces.witness import build_tower

from _oracles import caterpillar, loop_b_contents, loop_f_contents

INF = math.inf
B_EXPONENTS = [(1, 2), (2, 2), (INF, 2), (2, 1), (1, INF), (INF, INF), (0.5, 3)]
F_EXPONENTS = [(1, INF), (2, INF), (0.5, INF), (1, 2)]


def cube(dim: int, level: int, first: int) -> DyadicCube:
    return DyadicCube(dim, level, (first,) + (0,) * (dim - 1))


def ranges(geo, extra_level: int):
    """Every candidate's range and level, and the ancestor-of-root range."""
    lo = np.append(geo.cand_lo, 0)
    hi = np.append(geo.cand_hi, geo.m)
    level = np.append(geo.cand_level, extra_level)
    return lo, hi, level


def assert_contents_match(geo, lo, hi, level, s=0.3):
    """The kernels' contents against the loops; the inhomogeneous loop on the
    ranges at levels >= 0, the only ones the inhomogeneous supremum reads."""
    cut = level >= 0
    for p, q in B_EXPONENTS:
        got = _kernels._BKernel(geo, s, p, q).contents(lo, hi)
        want = loop_b_contents(geo, s, p, q, lo, hi, level)
        assert got.tolist() == pytest.approx(want, rel=1e-12, abs=1e-12), (p, q)
        want = loop_b_contents(geo, s, p, q, lo[cut], hi[cut], level[cut], False)
        assert got[cut].tolist() == pytest.approx(want, rel=1e-12, abs=1e-12), (p, q, False)
    for p, q in F_EXPONENTS:
        got = _kernels._FKernel(geo, s, p, q).contents(lo, hi)
        want = loop_f_contents(geo, s, p, q, lo, hi)
        assert got.tolist() == pytest.approx(want, rel=1e-12, abs=1e-12), (p, q)


def loop_chains(geo) -> list[tuple[int, int]]:
    """The maximal leaf chains of at least ``_MIN_CHAIN`` nodes, one node at
    a time from the support parents."""
    children = [[] for _ in range(geo.m)]
    for i, par in enumerate(geo.parent.tolist()):
        if par >= 0:
            children[par].append(i)
    out = []
    for leaf in range(geo.m):
        if children[leaf]:
            continue
        top = leaf
        while geo.parent[top] >= 0 and len(children[geo.parent[top]]) == 1:
            top = int(geo.parent[top])
        if leaf + 1 - top >= _MIN_CHAIN:
            out.append((top, leaf + 1))
    return out


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("nodes", [_MIN_CHAIN - 1, _MIN_CHAIN, _MIN_CHAIN + 1])
def test_towers_at_the_chain_length(dim, nodes):
    geo = build_tower(0.25, 0.5, 1, dim, nodes - 1).sequence.geometry
    first, end = geo.chains
    assert list(zip(first.tolist(), end.tolist())) == (
        [(0, nodes)] if nodes >= _MIN_CHAIN else []
    )
    assert_contents_match(geo, *ranges(geo, -3))


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("seed", range(3))
def test_caterpillars(dim, seed):
    seq = caterpillar(random.Random(seed), dim, spine=6)
    geo = seq.geometry
    chains = list(zip(*(x.tolist() for x in geo.chains)))
    assert chains == loop_chains(geo)
    # some chain's top has a support parent, so its blocks enter the sweep
    assert any(geo.parent[top] >= 0 for top, _ in chains)
    assert_contents_match(geo, *ranges(geo, -3))


@pytest.mark.parametrize("dim", [1, 2])
def test_a_stem_above_a_fork_is_no_chain(dim):
    """A run of one-child nodes that ends at a branch point, not at a leaf,
    stays with the pairs and the sweep; the two tails below it are chains."""
    stem = 2 * _MIN_CHAIN
    values = {cube(dim, j, 0): -0.3 * j for j in range(stem + 1)}
    for first in (0, 1):
        for d in range(1, _MIN_CHAIN + 3):
            values[cube(dim, stem + d, first << d - 1)] = 0.2 * d
    geo = CubeSequence.from_log2_values(values, root=cube(dim, 0, 0)).geometry
    chains = list(zip(*(x.tolist() for x in geo.chains)))
    assert chains == loop_chains(geo) == [(stem + 1, stem + _MIN_CHAIN + 3),
                                          (stem + _MIN_CHAIN + 3, geo.m)]
    assert_contents_match(geo, *ranges(geo, -3))


def test_tied_weights_at_q_inf():
    """Weights with long runs of equal values, and equal to the chain's
    maximum, so that the stack pops blocks of equal W."""
    s, n = 0.0, 1
    pattern = [0.0, 0.0, 1.0, 1.0, 1.0, 0.5, 1.0, 0.0] * 8
    values = {cube(n, j, 0): w - j * (s + n / 2) for j, w in enumerate(pattern)}
    geo = CubeSequence.from_log2_values(values, root=cube(n, 0, 0)).geometry
    assert geo.chains[0].tolist() == [0]
    lo, hi, _ = ranges(geo, -1)
    for p in (1, 2):
        got = _kernels._FKernel(geo, s, p, INF).contents(lo, hi)
        assert got.tolist() == pytest.approx(loop_f_contents(geo, s, p, INF, lo, hi),
                                             rel=1e-12, abs=1e-12)


def mixed_forest() -> list[CubeSequence]:
    """Towers, caterpillars and random subtrees, in alternation."""
    rng, gen = random.Random(3), np.random.default_rng(3)
    seqs = []
    for i in range(9):
        if i % 3 == 0:
            seqs.append(build_tower(0.1, 0.5, 1, 1, 40 + 17 * i).sequence)
        elif i % 3 == 1:
            seqs.append(caterpillar(rng, 1, spine=5))
        else:
            seqs.append(random_sequence(gen, 1, 6, 0.6, -3.0, 3.0))
    return seqs


def test_mixed_forest_norms_equal_each_sequence_alone():
    seqs = mixed_forest()
    forest = Forest(seqs)
    cases = [SpaceParams(Family.F_TYPE, 0.2, 0.5, p, q, hom)
             for p, q in ((1, INF), (2, INF), (1, 2)) for hom in (True, False)]
    cases += [SpaceParams(Family.B_TYPE, 0.2, 0.5, p, q, hom)
              for p, q in B_EXPONENTS for hom in (True, False)]
    cases += [SpaceParams(Family.CMO, 0.1, 0.5, q, q) for q in (2, INF)]
    cases += [SpaceParams(Family.BBMO, 0.1, 0, p, q) for p, q in ((2, 2), (1, 3), (INF, 2))]
    for params in cases:
        want = [Forest([seq]).log2_norms(params)[0] for seq in seqs]
        assert forest.log2_norms(params).tolist() == want, params


def test_tower_takes_no_pairs_and_no_sweep(monkeypatch):
    """On a 100-level tower, one leaf chain, the B, BBMO and CMO contents of
    every candidate come from the chain's accumulate, and F at q = inf from
    its stack alone."""
    calls = []
    monkeypatch.setattr(_kernels, "_batched", lambda *a: calls.append("pairs"))
    monkeypatch.setattr(_kernels, "_sweep", lambda *a: calls.append("sweep"))
    forest = Forest([build_tower(0, 0.5, 1, 1, 100).sequence])
    for params in (
        SpaceParams(Family.B_TYPE, 0, 0.5, 1, 2),
        SpaceParams(Family.B_TYPE, 0, 0.5, 2, 2),
        SpaceParams(Family.B_TYPE, 0, 0.5, 1, INF, homogeneous=False),
        SpaceParams(Family.CMO, 0, 0.5, 2, 2),
        SpaceParams(Family.BBMO, 0, 0, 1, 2),
    ):
        assert np.isfinite(forest.log2_norms(params)).all()
        assert calls == [], params
    geo = forest._groups[0][1]
    _kernels._FKernel(geo, 0, 1, INF)
    assert calls == []
