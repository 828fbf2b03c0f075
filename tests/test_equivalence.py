import math

import numpy as np
import pytest

from dyadic_spaces import (
    CubeSequence,
    DyadicCube,
    Family,
    ParamError,
    SpaceParams,
    b_type_norm,
    build_tower,
    check_holder_embeddings,
    check_exact_identities,
    check_collapse_b,
    check_collapse_f,
    check_collapse_inhomogeneous,
    f_inf_inf_norm,
    f_type_norm,
    random_sequence,
    collapse_upper_constant_log2,
)

from _oracles import (
    candidate_value, saturated_ratio_log2, saturated_tree_sequence, zero_sequence,
)

INF = math.inf


def batch(seed, count, dim=1, depth=6):
    rng = np.random.default_rng(seed)
    return [random_sequence(rng, dim, depth) for _ in range(count)]


class TestUpperConstant:
    def test_matches_hand_value(self):
        # n=1, tau - 1/p = 1/2, q = 2: C = (1 - 2^-1)^(-1/2) = sqrt(2)
        c = 2.0 ** collapse_upper_constant_log2(0, 1.5, 1, 2, 1)
        assert c == pytest.approx(math.sqrt(2.0), rel=1e-14)

    def test_q_inf_constant_is_one(self):
        assert collapse_upper_constant_log2(0, 0.5, 2, INF, 1) == 0.0

    def test_rejects_out_of_range(self):
        with pytest.raises(ParamError):
            collapse_upper_constant_log2(0, 0.5, 2, 2, 1)  # tau = 1/p, q < inf
        with pytest.raises(ParamError):
            collapse_upper_constant_log2(0, 0.3, 2, INF, 1)  # tau < 1/p


class TestCollapseF:
    def test_single_cube_ratio_one(self):
        seq = CubeSequence.from_values({DyadicCube.unit(1): 2.5})
        rep = check_collapse_f(seq, 0, 1.5, 1, 2)
        assert rep.all_ok
        assert rep.worst_ratio_low == pytest.approx(1.0, rel=1e-12)
        assert rep.worst_ratio_high == pytest.approx(1.0, rel=1e-12)

    def test_zero_sequence_vacuous(self):
        rep = check_collapse_f(zero_sequence(DyadicCube.unit(1)), 0, 1.5, 1, 2)
        assert rep.all_ok
        assert rep.vacuous == 1
        assert rep.worst_ratio_low == rep.worst_ratio_high == 1.0

    @pytest.mark.parametrize("q", [0.5, 1, 2, INF])
    @pytest.mark.parametrize("delta", [0.25, 0.5, 1.0])
    def test_random_sweep_within_constants(self, q, delta):
        p = 2.0
        tau = 1.0 / p + delta
        rep = check_collapse_f(batch(101, 60), 0.3, tau, p, q)
        assert rep.all_ok, (rep.worst_ratio_low, rep.worst_ratio_high)

    def test_example_grid_cell(self):
        # (s, tau, p, q) = (0, 1.5, 1, 2), 1000 sequences at depth 10:
        # every ratio lands in [1, sqrt(2)]
        rep = check_collapse_f(batch(7, 1000, dim=1, depth=10), 0, 1.5, 1, 2)
        assert rep.all_ok
        assert rep.upper_constant == pytest.approx(math.sqrt(2.0))

    def test_lower_bound_is_tight_subsup(self):
        for seq in batch(8, 40):
            a = f_type_norm(seq, SpaceParams(Family.F_TYPE, 0, 1.5, 1, 2)).log2_value
            b = f_inf_inf_norm(seq, 0 + 1 * (1.5 - 1.0)).log2_value
            assert a >= b - 1e-13


class TestCollapseB:
    @pytest.mark.parametrize("p", [0.5, 2, INF])
    @pytest.mark.parametrize("q", [1, 2, INF])
    def test_random_sweep_within_constants(self, p, q):
        inv_p = 0.0 if p == INF else 1.0 / p
        rep = check_collapse_b(batch(11, 60), -0.2, inv_p + 0.5, p, q)
        assert rep.all_ok

    def test_boundary_sup_collapse_constant_one_both_sides(self):
        # tau = 1/p, q = inf: both constants are exactly 1
        p = 3.0
        for seq in batch(12, 40):
            lhs = b_type_norm(
                seq, SpaceParams(Family.B_TYPE, 0.4, 1 / p, p, INF)
            ).log2_value
            rhs = f_inf_inf_norm(seq, 0.4).log2_value
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_p_inf_usual_modification_agrees_with_large_p(self):
        rng = np.random.default_rng(13)
        seq = random_sequence(rng, 1, 5, log2_low=-2, log2_high=2)
        exact = b_type_norm(
            seq, SpaceParams(Family.B_TYPE, 0, 1.0, INF, 2)
        ).linear_value
        approx = b_type_norm(
            seq, SpaceParams(Family.B_TYPE, 0, 1.0, 2.0**20, 2)
        ).linear_value
        assert approx == pytest.approx(exact, rel=0.01)


class TestSaturatedTightness:
    @pytest.mark.parametrize("q,delta,depth", [(2, 0.5, 8), (1, 1.0, 6), (0.5, 1.0, 12)])
    def test_ratio_approaches_constant(self, q, delta, depth):
        seq = saturated_tree_sequence(1, depth, delta)
        params = SpaceParams(Family.F_TYPE, 0.0, delta + 0.5, 2.0, q)
        val = candidate_value(seq, params, seq.root)
        ratio_log2 = val - f_inf_inf_norm(seq, 0.0 + delta).log2_value
        predicted = saturated_ratio_log2(q, delta, 1, depth)
        assert ratio_log2 == pytest.approx(predicted, abs=1e-10)
        c_log2 = collapse_upper_constant_log2(0, delta + 0.5, 2.0, q, 1)
        assert 2.0 ** (ratio_log2 - c_log2) >= 0.95

    def test_full_norm_sup_is_at_root(self):
        seq = saturated_tree_sequence(1, 6, 0.5)
        params = SpaceParams(Family.F_TYPE, 0.0, 1.0, 2.0, 2.0)
        nv = f_type_norm(seq, params)
        assert nv.log2_value == pytest.approx(
            candidate_value(seq, params, seq.root), abs=1e-12
        )
        assert nv.attained_at == seq.root


class TestHolder:
    def test_single_cube_equality(self):
        seq = CubeSequence.from_values({DyadicCube.unit(1): 1.7})
        rep = check_holder_embeddings(seq, 0.2, 0.3, 1, 2)
        assert rep.worst_ratio_high == pytest.approx(1.0, rel=1e-12)
        assert rep.all_ok

    def test_tower_ratio_shrinks_with_depth(self):
        # the separating family: embedding ratio decays to zero
        s, tau, p, q = 0.0, 0.5, 1.0, 2.0
        ratios = []
        for J in (4, 16, 64):
            tower = build_tower(s, tau, p, 1, J).sequence
            lhs = f_type_norm(
                tower, SpaceParams(Family.F_TYPE, s, tau, p, q)
            ).log2_value
            rhs = b_type_norm(
                tower,
                SpaceParams(Family.B_TYPE, s, tau + 1 / q - 1 / p, q, q),
                allow_negative_tau=True,
            ).log2_value
            ratios.append(2.0 ** (lhs - rhs))
        assert ratios[0] > ratios[1] > ratios[2]
        # lhs stays below its uniform bound while rhs grows like (J+1)^(1/q)
        assert ratios[2] < (1 - 2**-0.5) ** -1 / 65**0.5 * 1.01

    @pytest.mark.parametrize("p,q", [(1, 2), (0.5, 1), (2, INF), (1, INF)])
    def test_no_violations_on_random_sweep(self, p, q):
        rep = check_holder_embeddings(batch(14, 100), 0.1, 0.4, p, q)
        assert rep.all_ok
        assert rep.worst_ratio_high <= 1 + 1e-12

    def test_requires_q_above_p(self):
        with pytest.raises(ParamError):
            check_holder_embeddings(batch(1, 1), 0, 0.5, 2, 2)

    def test_zero_sequence_vacuous(self):
        rep = check_holder_embeddings(zero_sequence(DyadicCube.unit(1)), 0, 0.5, 1, 2)
        assert rep.all_ok
        assert rep.vacuous == 1
        assert rep.worst_ratio_low == rep.worst_ratio_high == 0.0
        assert rep.rows == []


class TestExactIdentities:
    def test_zero_sequence(self):
        rep = check_exact_identities(zero_sequence(DyadicCube.unit(1)), 0, 2, 2, 1)
        assert rep.all_ok
        assert rep.vacuous == 1
        assert rep.worst_ratio_low == rep.worst_ratio_high == 1.0

    def test_random_grid(self):
        for s, p, q, r in [(0, 2, 2, 1), (0.5, 1, 3, 0.2), (-0.4, 4, 0.5, 2.0)]:
            rep = check_exact_identities(batch(15, 50), s, p, q, r)
            assert rep.all_ok, (s, p, q, r, rep.worst_ratio_low, rep.worst_ratio_high)

    def test_tower_with_matching_r_hits_inf_inf_constants(self):
        # r = tau q + 1 - q/p with tau > 1/p: the Carleson value collapses too
        s, tau, p, q, n = 0.0, 2.0, 1.0, 2.0, 1
        r = tau * q + 1 - q / p
        tower = build_tower(s, tau, p, n, 24).sequence
        rep = check_exact_identities(tower, s, p, q, r)
        assert rep.all_ok
        from dyadic_spaces import cmo_norm

        c_log2 = collapse_upper_constant_log2(s, r / q, q, q, n)
        lhs = cmo_norm(tower, s, q, r).log2_value
        rhs = f_inf_inf_norm(tower, s + n * (r - 1) / q).log2_value
        assert rhs - 1e-12 <= lhs <= rhs + c_log2 + 1e-12


class TestInhomogeneousCollapse:
    def test_root_supported_equals_homogeneous(self):
        seqs = batch(16, 30)
        hom = check_collapse_f(seqs, 0, 1.5, 1, 2)
        inhom = check_collapse_inhomogeneous(seqs, 0, 1.5, 1, 2, family="f")
        assert inhom.all_ok
        assert inhom.worst_ratio_low == pytest.approx(hom.worst_ratio_low, rel=1e-12)
        assert inhom.worst_ratio_high == pytest.approx(hom.worst_ratio_high, rel=1e-12)

    def test_b_variant_same_constants(self):
        rep = check_collapse_inhomogeneous(batch(17, 30), 0, 1.5, 1, 2, family="b")
        assert rep.all_ok
        assert rep.upper_constant == pytest.approx(
            2.0 ** collapse_upper_constant_log2(0, 1.5, 1, 2, 1)
        )

    def test_rejects_negative_level_support(self):
        seq = CubeSequence.from_log2_values(
            {DyadicCube(1, -1, (0,)): 0.0}, root=DyadicCube(1, -2, (0,))
        )
        with pytest.raises(ParamError):
            check_collapse_inhomogeneous(seq, 0, 1.5, 1, 2)

    def test_inhomogeneous_norm_dominated_when_support_reaches_up(self):
        values = {
            DyadicCube(1, -2, (0,)): 0.8,
            DyadicCube(1, 0, (0,)): 0.1,
            DyadicCube(1, 3, (2,)): -0.4,
        }
        seq = CubeSequence.from_log2_values(values, root=DyadicCube(1, -2, (0,)))
        hom = f_type_norm(seq, SpaceParams(Family.F_TYPE, 0, 0.5, 2, 2))
        inhom = f_type_norm(
            seq, SpaceParams(Family.F_TYPE, 0, 0.5, 2, 2, homogeneous=False)
        )
        assert inhom.log2_value <= hom.log2_value + 1e-12


class TestMixedDimGuard:
    def test_mixed_dimension_batch_rejected(self):
        seqs = batch(18, 2, dim=1) + batch(19, 2, dim=2)
        with pytest.raises(ValueError):
            check_collapse_f(seqs, 0, 1.5, 1, 2)

    def test_root_of_another_dimension_rejected(self):
        with pytest.raises(ValueError, match=r"dimension 1, not dim 3"):
            random_sequence(np.random.default_rng(0), 3, 4, root=DyadicCube.unit(1))
