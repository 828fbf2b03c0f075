"""Forests: a sample set compiled as one geometry and evaluated by one kernel
call per norm, against the norms of its sequences one at a time."""
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyadic_spaces import (
    CubeSequence,
    DyadicCube,
    Family,
    Forest,
    SpaceParams,
    b_type_norm,
    bbmo_norm,
    check_collapse_b,
    check_exact_identities,
    check_holder_embeddings,
    cmo_norm,
    f_inf_inf_norm,
    f_type_norm,
    random_sample_set,
    random_sequence,
)
from dyadic_spaces import _geometry, cli

from _oracles import reference_sample_set, zero_sequence

INF = math.inf
F, B = Family.F_TYPE, Family.B_TYPE


def sample_set(dim: int) -> list[CubeSequence]:
    """Mixed depths under two roots, in alternation: random subtrees (every
    third with equal magnitudes, so that ties abound), a one-node sequence,
    a single deep cube and a zero sequence under each root."""
    rng = np.random.default_rng(dim)
    roots = (DyadicCube.unit(dim), DyadicCube(dim, -2, (1,) * dim))
    seqs = []
    for i in range(24):
        span = 0.0 if i % 3 == 0 else 20.0
        depth = int(rng.integers(0, 7 if dim == 1 else 4))
        seqs.append(random_sequence(rng, dim, depth, 0.6, -span, span, roots[i % 2]))
    for root in roots:
        deep = DyadicCube(dim, root.level + 5, tuple((k << 5) + 3 for k in root.index))
        seqs.append(CubeSequence.from_log2_values({root: 1.5}, root=root))
        seqs.append(CubeSequence.from_log2_values({deep: -2.0}, root=root))
        seqs.append(zero_sequence(root))
    return seqs


def norm_cases() -> list[tuple]:
    """(parameter record, norm function, arguments after the sequence, keywords)."""
    cases = []
    for hom in (True, False):
        for p, q in ((2, 2), (1, 2), (2, 0.5), (2, INF)):
            params = SpaceParams(F, 0.3, 0.75, p, q, hom)
            cases.append((params, f_type_norm, (params,), {}))
        for p, q in ((2, 2), (1, 2), (INF, 2), (2, INF), (INF, INF)):
            params = SpaceParams(B, -0.2, 0.5, p, q, hom)
            cases.append((params, b_type_norm, (params,), {}))
    params = SpaceParams(B, 0, -0.25, 2, 2)
    cases.append((params, b_type_norm, (params,), {"allow_negative_tau": True}))
    cases += [(SpaceParams(Family.CMO, 0.1, 0.5, q, q), cmo_norm, (0.1, q, 0.5), {})
              for q in (2, INF)]
    cases += [(SpaceParams(Family.BBMO, 0.1, 0, p, q), bbmo_norm, (0.1, p, q), {})
              for p, q in ((2, 2), (1, 3), (INF, 2))]
    cases.append((SpaceParams(Family.F_INF_INF, 0.4, 0, INF, INF), f_inf_inf_norm, (0.4,), {}))
    return cases


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_batch_log2_norms_equal_the_single_norms(dim):
    seqs = sample_set(dim)
    forest = Forest(seqs)
    for params, fn, args, kwargs in norm_cases():
        want = [fn(seq, *args, **kwargs).log2_value for seq in seqs]
        assert forest.log2_norms(params, **kwargs).tolist() == want, params
        alone = Forest(seqs[:1]).log2_norms(params, **kwargs)  # a forest of one
        assert alone.tolist() == want[:1]


# sha256 of every attained cube of ``norm_cases`` over the ``sample_set`` of
# dims 1-3, recorded before sample sets were compiled as forests: a forest of
# one attains the cubes it attained then.  The log2 values are left out, as
# their last bits follow numpy's float kernels for the CPU (the cubes do not).
FOREST_OF_ONE_SHA256 = "2b820b0689feee405304b0278f67a50c981084aac09a2cb6c0250f17b9035e5c"


def test_forest_of_one_attains_the_recorded_cubes():
    out = [
        (nv.attained_at.level, nv.attained_at.index)
        for dim in (1, 2, 3)
        for seq in sample_set(dim)
        for _, fn, args, kwargs in norm_cases()
        for nv in [fn(seq, *args, **kwargs)]
    ]
    assert hashlib.sha256(repr(out).encode()).hexdigest() == FOREST_OF_ONE_SHA256


def test_checks_take_a_forest_or_a_list_alike():
    seqs = random_sample_set(4, 40, dims=(1,), depth_1d=8)
    forest = Forest(seqs)
    assert check_collapse_b(forest, 0, 1.5, 1, 2) == check_collapse_b(seqs, 0, 1.5, 1, 2)
    assert check_holder_embeddings(forest, 0, 0.25, 1, 2) == check_holder_embeddings(
        seqs, 0, 0.25, 1, 2
    )
    assert check_exact_identities(forest, 0.2, 1, 2, 1) == check_exact_identities(
        seqs, 0.2, 1, 2, 1
    )


def test_sweep_builds_one_sample_set(monkeypatch, tmp_path):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return random_sample_set(*args, **kwargs)

    monkeypatch.setattr(cli, "random_sample_set", counted)
    assert cli.main(["sweep", "--samples", "5", "--out", str(tmp_path / "s.json")]) == 0
    assert len(calls) == 1


def cube_generator(rng, dim, max_depth, retain=0.6, log2_low=-20.0, log2_high=20.0):
    """``random_sequence`` as first written: one ``DyadicCube`` per child."""
    root = DyadicCube.unit(dim)
    cubes, frontier = [root], [root]
    for _ in range(max_depth):
        frontier = [c for cube in frontier for c in cube.children() if rng.random() < retain]
        cubes.extend(frontier)
        if not frontier:
            break
    values = dict(zip(cubes, rng.uniform(log2_low, log2_high, size=len(cubes)).tolist()))
    return CubeSequence.from_log2_values(values, root=root, max_depth=max_depth)


@pytest.mark.parametrize("dims", [(1,), (2,), (1, 2)])
def test_sample_set_matches_the_cube_generator(dims):
    rng = np.random.default_rng(9)
    want = []
    for i in range(60):
        dim = dims[i % len(dims)]
        want.append(cube_generator(rng, dim, int(rng.integers(0, (8 if dim == 1 else 4) + 1))))
    got = random_sample_set(9, 60, dims=dims, depth_1d=8, depth_nd=4)
    for a, b in zip(got, want):
        assert (a.root, a.max_depth, a._width) == (b.root, b.max_depth, b._width)
        assert (a._key, a._node_depth) == (b._key, b._node_depth)
        assert a._log2t.tolist() == b._log2t.tolist()


# -- sample sets drawn straight into a forest ----------------------------------

GEOMETRY = ("key", "node_depth", "log2t", "seg_lo", "mu_log2", "seg_cand", "parent", "sdepth",
            "cand_level", "cand_lo", "cand_hi", "gap_lo")


def arrays(forest: Forest) -> list:
    """Every group's sample positions, width and geometry arrays."""
    return [
        (list(idx), geo.root, geo.depth,
         {name: list(np.asarray(getattr(geo, name), dtype=object)) for name in GEOMETRY})
        for idx, geo in forest._groups
    ]


def fields(seq: CubeSequence) -> tuple:
    return (seq.root, seq.max_depth, seq._width, seq._key, seq._node_depth,
            seq._log2t.tobytes())


def drawn_with_sort_spy(*args) -> tuple[Forest, int]:
    """``random_sample_set(*args)`` and how many int64 sorts it ran."""
    ran = []
    sort = _geometry._depth_first_int64
    _geometry._depth_first_int64 = lambda *a: ran.append(1) or sort(*a)
    try:
        return random_sample_set(*args), len(ran)
    finally:
        _geometry._depth_first_int64 = sort


def int64_sorts(forest: Forest) -> int:
    """The groups whose (sample, key, depth) triples take the int64 sort."""
    return sum(
        geo.m >= _geometry._NUMPY_SHELLS
        and (len(idx) - 1).bit_length() + geo.dim * geo.depth + geo.depth.bit_length() <= 62
        for idx, geo in forest._groups
    )


def assert_drawn_as_reference(args) -> int:
    """The drawn forest and its samples against ``reference_sample_set``;
    returns the int64 sorts that ran."""
    got, sorts = drawn_with_sort_spy(*args)
    seqs, want = reference_sample_set(*args)
    assert len(got) == len(seqs)
    assert got.roots == want.roots
    assert arrays(got) == arrays(want)
    assert sorts == int64_sorts(want)
    assert [fields(s) for s in got] == [fields(s) for s in seqs]
    return sorts


@st.composite
def sample_set_args(draw):
    """Sets of 0-60 samples, their expected size kept small; one in four a
    3-D set about 20 levels deep, too wide for an int64 sort."""
    seed = draw(st.integers(0, 2**32 - 1))
    if draw(st.integers(0, 3)) == 0:
        return (seed, draw(st.integers(1, 30)), (3,), 4, draw(st.integers(17, 21)),
                draw(st.floats(0.1, 0.16)))
    dims = draw(st.sampled_from([(1,), (2,), (3,), (1, 2)]))
    depth_1d, depth_nd = draw(st.integers(0, 10)), draw(st.integers(0, 4))
    retain = draw(st.floats(0.0, 0.9))
    for dim in dims:  # (2**dim * retain)**depth <= 2**9
        retain = min(retain, 2.0 ** (9 / max(depth_1d if dim == 1 else depth_nd, 1) - dim))
    return seed, draw(st.integers(0, 60)), dims, depth_1d, depth_nd, retain


@given(sample_set_args())
@settings(max_examples=120, deadline=None)
def test_drawn_forest_matches_the_per_sample_route(args):
    assert_drawn_as_reference(args)


@pytest.mark.parametrize("args,sorts", [
    ((3, 100, (1,), 8, 8, 0.6), 1),  # the many-small set: one int64 sort
    ((3, 5, (1,), 6, 4, 0.6), 0),  # under _NUMPY_SHELLS records
    ((0, 40, (1, 2), 10, 5, 0.6), 2),  # a sort per root
    # 19 levels deep: each sample alone fits an int64 sort (3 * 19 + 5 bits),
    # not with the 4 bits of 12 samples, so the set sorts as Python integers
    ((8, 12, (3,), 4, 20, 0.15), 0),
])
def test_drawn_forest_takes_each_sort(args, sorts):
    assert assert_drawn_as_reference(args) == sorts
    if args[0] == 8:
        assert [geo.depth for _, geo in random_sample_set(*args)._groups] == [19]


def test_forest_of_a_forest_builds_no_sample(monkeypatch):
    drawn = random_sample_set(5, 30, dims=(1,), depth_1d=8)
    params = SpaceParams(F, 0, 1.5, 1, 2)
    built = []
    init = CubeSequence.__init__
    monkeypatch.setattr(CubeSequence, "__init__", lambda *a: built.append(1) or init(*a))
    again = Forest(drawn)
    assert len(again) == 30
    assert again.log2_norms(params).tolist() == drawn.log2_norms(params).tolist()
    assert again._groups[0][1] is drawn._groups[0][1]  # one compile for both
    assert not built
    assert fields(again[-1]) == fields(drawn[29]) and len(built) == 2


@pytest.mark.parametrize("index", [
    slice(1, 3), slice(None, None, -1), slice(-2, None), slice(4, 1, -2), slice(9, 12),
])
@pytest.mark.parametrize("kind", ["drawn", "eager"])
def test_forest_slices_are_lists_of_samples(kind, index):
    drawn = random_sample_set(0, 5, dims=(1,))
    forest = drawn if kind == "drawn" else Forest(list(drawn))
    got = forest[index]
    assert type(got) is list
    assert list(map(fields, got)) == list(map(fields, list(forest)[index]))


@pytest.mark.parametrize("argv", [
    ["equiv", "--check", "collapse-f", "--tau", "3/2", "--p", "1"],
    ["equiv", "--check", "collapse-b", "--tau", "3/2", "--p", "1"],
    ["equiv", "--check", "holder", "--tau", "1/4", "--p", "1", "--q", "2"],
    ["equiv", "--check", "identities", "--r", "1"],
    ["equiv", "--check", "inhom-f", "--tau", "3/2", "--p", "1"],
    ["equiv", "--check", "inhom-b", "--tau", "3/2", "--p", "1"],
    ["equiv", "--check", "collapse-f", "--tau", "3/2", "--p", "1", "--dim", "2", "--depth", "4"],
    ["sweep"],
], ids=lambda argv: "-".join(argv[:3]))
def test_checks_build_no_sequence(argv, monkeypatch, tmp_path):
    built = []
    init = CubeSequence.__init__
    monkeypatch.setattr(CubeSequence, "__init__", lambda *a: built.append(1) or init(*a))
    assert cli.main([*argv, "--samples", "20", "--out", str(tmp_path / "out")]) == 0
    assert not built


@pytest.mark.filterwarnings("error")
def test_norms_past_the_float_range_raise():
    """A sequence with support has a finite log2 norm, so a NaN or infinite
    supremum raises OverflowError, from the norm functions and from a
    forest alike; a sequence without support keeps -inf."""
    root = DyadicCube.unit(1)
    seq = CubeSequence.from_log2_values({DyadicCube(1, 2, (1,)): 1.0}, root=root)
    forest = Forest([seq, zero_sequence(root), random_sequence(np.random.default_rng(0), 1, 4)])
    for params in (
        SpaceParams(F, 1e308, 1, 2, 2),  # NaN contents
        SpaceParams(F, 0, 1e308, 2, 2),  # an infinite slope term
        SpaceParams(B, -1e308, 1, 1, 2),  # -inf for a nonzero sequence
        SpaceParams(Family.F_INF_INF, 1e308, 0, INF, INF),
    ):
        if params.family == F:
            with pytest.raises(OverflowError, match="not a finite float"):
                f_type_norm(seq, params)
        with pytest.raises(OverflowError, match="not a finite float"):
            forest.log2_norms(params)
    # the root's slope term overflows; without support the norm is still 0
    empty = zero_sequence(DyadicCube(1, 2, (1,)))
    params = SpaceParams(F, 0, 1e308, 2, 2)
    assert Forest([empty, empty]).log2_norms(params).tolist() == [-math.inf] * 2
    assert f_type_norm(empty, params).log2_value == -math.inf


def test_inhomogeneous_norm_without_support_at_levels_0_up_is_minus_inf():
    """Support only at negative levels leaves the inhomogeneous supremum no
    cube to evaluate: its -inf is the norm, not an overflow."""
    root = DyadicCube(1, -3, (0,))
    seq = CubeSequence.from_log2_values({DyadicCube(1, -1, (1,)): 1.0}, root=root)
    for family in (F, B):
        params = SpaceParams(family, 0.5, 1, 2, 2, homogeneous=False)
        assert Forest([seq, seq]).log2_norms(params).tolist() == [-math.inf] * 2
        assert Forest([seq]).log2_norms(params).tolist() == [-math.inf]
