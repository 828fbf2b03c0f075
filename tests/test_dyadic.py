from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import descendant, lower_corner, path_from, shell_decomposition, volume
from dyadic_spaces import (
    DimensionMismatchError,
    DyadicCube,
    SupportTree,
)


def Q(j, k, dim=1):
    return DyadicCube(dim, j, tuple(k) if isinstance(k, (list, tuple)) else (k,))


def interval(cube):
    """Exact half-open interval per axis, the containment oracle."""
    lo = lower_corner(cube)
    side = Fraction(1, 2**cube.level) if cube.level >= 0 else Fraction(2**-cube.level)
    return [(a, a + side) for a in lo]


def contains_by_intervals(p, q):
    return all(
        plo <= qlo and qhi <= phi
        for (plo, phi), (qlo, qhi) in zip(interval(p), interval(q))
    )


class TestContains:
    def test_child_containment(self):
        assert Q(0, 0).contains(Q(1, 0))

    def test_disjoint_siblings(self):
        assert not Q(1, 1).contains(Q(1, 0))

    def test_deep_descendant_interval_oracle(self):
        # 5 * 2^-3 lies in [0, 1)
        p, q = Q(0, 0), Q(3, 5)
        assert p.contains(q)
        assert contains_by_intervals(p, q)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            Q(0, 0).contains(Q(0, [0, 0], dim=2))

    def test_negative_levels_and_indices(self):
        assert Q(-2, 0).contains(Q(0, 3))
        assert Q(-1, -1).contains(Q(0, -2))
        assert not Q(-1, -1).contains(Q(0, 0))


class TestRepr:
    def test_small_indices(self):
        assert repr(DyadicCube(1, 3, (5,))) == "Q(j=3, k=5)"
        assert repr(DyadicCube(2, 3, (1, -2))) == "Q(j=3, k=[1, -2])"

    def test_index_beyond_int_string_limit(self):
        import random

        from dyadic_spaces.seqspace import int_to_decimal

        k = random.Random(2).getrandbits(20000)  # about 6000 digits
        assert repr(DyadicCube(2, 20000, (k, 1))) == f"Q(j=20000, k=[{int_to_decimal(k)}, 1])"


class TestAncestor:
    def test_to_root(self):
        assert Q(3, 5).ancestor_at(0) == Q(0, 0)

    def test_componentwise_floor(self):
        c = Q(2, [3, 1], dim=2)
        assert c.ancestor_at(1) == Q(1, [1, 0], dim=2)
        # oracle: floor division per component
        assert tuple(k // 2 for k in (3, 1)) == (1, 0)

    def test_identity(self):
        c = Q(2, 3)
        assert c.ancestor_at(2) == c

    def test_finer_level_rejected(self):
        with pytest.raises(ValueError):
            Q(2, 3).ancestor_at(4)


cube_strategy = st.integers(1, 3).flatmap(
    lambda dim: st.integers(-4, 8).flatmap(
        lambda j: st.tuples(
            *([st.integers(-(2 ** (max(j, 0) + 2)), 2 ** (max(j, 0) + 2))] * dim)
        ).map(lambda k: DyadicCube(dim, j, k))
    )
)


@st.composite
def cube_triples(draw):
    dim = draw(st.integers(1, 2))
    def one():
        j = draw(st.integers(-3, 6))
        k = tuple(
            draw(st.integers(-(2 ** (max(j, 0) + 2)), 2 ** (max(j, 0) + 2)))
            for _ in range(dim)
        )
        return DyadicCube(dim, j, k)
    return one(), one(), one()


class TestPartialOrder:
    @given(cube_triples())
    @settings(max_examples=200)
    def test_reflexive_antisymmetric_transitive(self, triple):
        a, b, c = triple
        assert a.contains(a)
        if a.contains(b) and b.contains(a):
            assert a == b
        if a.contains(b) and b.contains(c):
            assert a.contains(c)

    @given(cube_triples())
    @settings(max_examples=200)
    def test_contains_matches_interval_arithmetic(self, triple):
        a, b, _ = triple
        assert a.contains(b) == contains_by_intervals(a, b)

    @given(cube_triples())
    @settings(max_examples=100)
    def test_same_level_equal_or_disjoint(self, triple):
        a, b, _ = triple
        if a.level == b.level and a != b:
            assert not (a.contains(b) or b.contains(a))
            # interval check: some axis must be disjoint
            assert any(
                ahi <= blo or bhi <= alo
                for (alo, ahi), (blo, bhi) in zip(interval(a), interval(b))
            )


class TestAncestorChain:
    @given(cube_strategy, st.integers(0, 6))
    @settings(max_examples=200)
    def test_repeated_parent_equals_direct(self, cube, d):
        target = cube.level - d
        via_parents = cube
        for _ in range(d):
            via_parents = via_parents.parent()
        assert via_parents == cube.ancestor_at(target)

    @given(cube_strategy)
    @settings(max_examples=100)
    def test_path_roundtrip(self, cube):
        anc = cube.ancestor_at(cube.level - 3)
        assert descendant(anc, path_from(cube, anc)) == cube


class TestShellDecomposition:
    def test_two_cube_tower(self):
        r0, r1 = Q(0, 0), Q(1, 0)
        tree = SupportTree.build({r0, r1})
        shells = shell_decomposition(tree, r0)
        got = {(s.region, s.active, s.measure) for s in shells}
        assert got == {
            (r0, frozenset({r0}), Fraction(1, 2)),
            (r1, frozenset({r0, r1}), Fraction(1, 2)),
        }

    def test_empty_support(self):
        root = Q(0, 0)
        tree = SupportTree(root, frozenset(), 0)
        shells = shell_decomposition(tree, root)
        assert shells == [(root, frozenset(), Fraction(1))]

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("J", [3, 7])
    def test_full_tower_telescopes(self, n, J):
        nodes = {DyadicCube(n, j, (0,) * n) for j in range(J + 1)}
        tree = SupportTree.build(nodes)
        shells = shell_decomposition(tree, DyadicCube.unit(n))
        assert len(shells) == J + 1
        by_level = {s.region.level: s.measure for s in shells}
        for j in range(J):
            assert by_level[j] == Fraction(1, 2 ** (j * n)) * (
                1 - Fraction(1, 2**n)
            )
        assert by_level[J] == Fraction(1, 2 ** (J * n))

    def test_shell_for_inner_region_keeps_outer_chain(self):
        r0, r1 = Q(0, 0), Q(1, 0)
        tree = SupportTree.build({r0, r1})
        shells = shell_decomposition(tree, r1)
        assert shells == [(r1, frozenset({r0, r1}), Fraction(1, 2))]

    def test_region_above_root(self):
        tree = SupportTree.build({Q(1, 0)}, root=Q(0, 0))
        big = Q(-1, 0)
        shells = shell_decomposition(tree, big)
        assert sum(s.measure for s in shells) == volume(big)

    def test_rejects_disjoint_region(self):
        tree = SupportTree.build({Q(1, 0)}, root=Q(0, 0))
        with pytest.raises(ValueError):
            shell_decomposition(tree, Q(0, 5))

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_partition_property(self, data):
        dim = data.draw(st.integers(1, 2))
        root = DyadicCube.unit(dim)
        nodes = {root}
        frontier = [root]
        for _ in range(data.draw(st.integers(0, 4))):
            nxt = []
            for cube in frontier:
                for child in cube.children():
                    if data.draw(st.booleans()):
                        nxt.append(child)
            nodes.update(nxt)
            frontier = nxt
        tree = SupportTree.build(nodes)
        region = data.draw(st.sampled_from(sorted(nodes, key=lambda c: c.sort_key())))
        shells = shell_decomposition(tree, region)
        assert sum((s.measure for s in shells), Fraction(0)) == volume(region)

    def test_deep_tower_float_measures_bit_exact(self):
        # depth 50 in one dimension: float shell measures sum exactly to 1
        nodes = {Q(j, 0) for j in range(51)}
        tree = SupportTree.build(nodes)
        shells = shell_decomposition(tree, Q(0, 0))
        total = 0.0
        for s in shells:
            total += float(s.measure)
        assert total == 1.0
