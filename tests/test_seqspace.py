import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyadic_spaces import (
    CubeSequence,
    DyadicCube,
    Family,
    ParamError,
    SpaceParams,
    b_type_norm,
    bbmo_norm,
    cmo_norm,
    f_inf_inf_norm,
    f_type_norm,
    load_jsonl,
    norm,
    save_jsonl,
)
from dyadic_spaces.equivalence import random_sequence
from dyadic_spaces.witness import build_tower, certify_separation

from _oracles import (
    candidate_value,
    log2_magnitudes,
    loop_b_contents,
    loop_f_contents,
    reference_b_norm,
    reference_bbmo,
    reference_cmo,
    reference_f_inf_inf,
    reference_f_norm,
    scaled_log2,
    small_random_sequence,
    value,
    volume,
    with_entry,
    zero_sequence,
)

INF = math.inf


def Q(j, k, dim=1):
    return DyadicCube(dim, j, tuple(k) if isinstance(k, (list, tuple)) else (k,))


def unit_seq(dim=1, value=1.0):
    return CubeSequence.from_values({DyadicCube.unit(dim): value})


def fp(s, tau, p, q, hom=True):
    return SpaceParams(Family.F_TYPE, s, tau, p, q, homogeneous=hom)


def bp(s, tau, p, q, hom=True):
    return SpaceParams(Family.B_TYPE, s, tau, p, q, homogeneous=hom)


class TestSingleCube:
    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("p,q", [(2, 2), (1, 3), (0.5, 4), (2, INF)])
    def test_f_norm_is_one(self, dim, p, q):
        nv = f_type_norm(unit_seq(dim), fp(0, 0, p, q))
        assert nv.linear_value == pytest.approx(1.0, abs=1e-14)
        assert nv.attained_at == DyadicCube.unit(dim)

    @pytest.mark.parametrize("p,q", [(2, 2), (INF, 1), (INF, INF), (3, INF)])
    def test_b_norm_is_one(self, p, q):
        nv = b_type_norm(unit_seq(), bp(0, 0, p, q))
        assert nv.linear_value == pytest.approx(1.0, abs=1e-14)

    def test_cmo_and_bbmo_are_one(self):
        assert cmo_norm(unit_seq(), 0, 2, 0).linear_value == pytest.approx(1.0)
        assert bbmo_norm(unit_seq(), 0, 2, 2).linear_value == pytest.approx(1.0)


class TestZeroSequence:
    def test_conventions(self):
        z = zero_sequence(DyadicCube.unit(1))
        for nv in (
            f_type_norm(z, fp(0, 0, 2, 2)),
            b_type_norm(z, bp(1, 0.5, 2, INF)),
            f_inf_inf_norm(z, 0.7),
            cmo_norm(z, 0, 2, 1),
            bbmo_norm(z, 0, 2, 2),
        ):
            assert nv.is_zero
            assert nv.log2_value == -INF
            assert nv.linear_value == 0.0
            assert nv.attained_at == DyadicCube.unit(1)


class TestParamValidation:
    def test_f_type_rejects_infinite_p(self):
        with pytest.raises(ParamError, match="Definition 1"):
            fp(0, 0, INF, 2)

    def test_negative_tau_rejected_by_default(self):
        with pytest.raises(ParamError, match="Proposition 1"):
            f_type_norm(unit_seq(), fp(0, -0.5, 2, 2))
        with pytest.raises(ParamError):
            b_type_norm(unit_seq(), bp(0, -0.5, 2, 2))

    def test_negative_tau_allowed_with_flag(self):
        nv = b_type_norm(
            unit_seq(), bp(0, -0.5, 2, 2), allow_negative_tau=True
        )
        assert nv.linear_value == pytest.approx(1.0)

    def test_nonpositive_exponents_rejected(self):
        with pytest.raises(ParamError):
            fp(0, 0, 0, 2)
        with pytest.raises(ParamError):
            bp(0, 0, 2, -1)

    def test_cmo_rejects_negative_r(self):
        with pytest.raises(ParamError):
            cmo_norm(unit_seq(), 0, 2, -0.5)


class TestAgainstShellOracle:
    """The production log-domain kernels against literal shell integration."""

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize(
        "s,tau,p,q",
        [
            (0.0, 0.0, 2.0, 2.0),
            (0.5, 0.3, 1.0, 2.0),
            (-0.7, 1.2, 0.5, 1.0),
            (0.0, 0.6, 2.0, INF),
            (1.0, 0.0, 3.0, 0.5),
        ],
    )
    def test_f_matches_oracle(self, dim, s, tau, p, q):
        rng = np.random.default_rng(hash((dim, s, tau, p, q)) % 2**32)
        for _ in range(8):
            seq = small_random_sequence(rng, dim=dim, depth=4)
            got = f_type_norm(seq, fp(s, tau, p, q)).linear_value
            want = reference_f_norm(seq, s, tau, p, q)
            assert got == pytest.approx(want, rel=1e-11)

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize(
        "s,tau,p,q",
        [
            (0.0, 0.0, 2.0, 2.0),
            (0.5, 0.3, 1.0, 2.0),
            (0.0, 0.7, INF, 2.0),
            (-0.2, 0.4, 2.0, INF),
            (0.3, 0.1, INF, INF),
            (0.0, 1.1, 0.5, 3.0),
        ],
    )
    def test_b_matches_oracle(self, dim, s, tau, p, q):
        rng = np.random.default_rng(hash((dim, s, tau, p, q, "b")) % 2**32)
        for _ in range(8):
            seq = small_random_sequence(rng, dim=dim, depth=4)
            got = b_type_norm(seq, bp(s, tau, p, q)).linear_value
            want = reference_b_norm(seq, s, tau, p, q)
            assert got == pytest.approx(want, rel=1e-11)

    def test_cmo_and_bbmo_match_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(8):
            seq = small_random_sequence(rng, dim=1, depth=4)
            assert cmo_norm(seq, 0.2, 2.0, 1.3).linear_value == pytest.approx(
                reference_cmo(seq, 0.2, 2.0, 1.3), rel=1e-11
            )
            assert bbmo_norm(seq, 0.2, 2.0, 3.0).linear_value == pytest.approx(
                reference_bbmo(seq, 0.2, 2.0, 3.0), rel=1e-11
            )
            assert f_inf_inf_norm(seq, 0.4).linear_value == pytest.approx(
                reference_f_inf_inf(seq, 0.4), rel=1e-12
            )

    def test_inhomogeneous_matches_oracle(self):
        rng = np.random.default_rng(11)
        root = Q(-2, 0)
        for _ in range(8):
            seq = small_random_sequence(rng, dim=1, depth=5)
            seq = CubeSequence.from_log2_values(
                {Q(-1, 0): 1.5, Q(-2, 0): -0.5, **log2_magnitudes(seq)}, root=root
            )
            got = f_type_norm(seq, fp(0.1, 0.4, 2, 2, hom=False)).linear_value
            want = reference_f_norm(seq, 0.1, 0.4, 2, 2, homogeneous=False)
            assert got == pytest.approx(want, rel=1e-11)
            gotb = b_type_norm(seq, bp(0.1, 0.4, 2, 2, hom=False)).linear_value
            wantb = reference_b_norm(seq, 0.1, 0.4, 2, 2, homogeneous=False)
            assert gotb == pytest.approx(wantb, rel=1e-11)


class TestDisjointnessReduction:
    def test_level_integral_identity(self):
        # reduction sum w^p |Q| against direct shell integration
        rng = np.random.default_rng(3)
        from _oracles import reference_b_level_integral

        for _ in range(20):
            seq = small_random_sequence(rng, dim=1, depth=4)
            P = seq.root
            for level in range(0, 5):
                direct = reference_b_level_integral(seq, P, 0.3, level, 2.0)
                reduced = sum(
                    (2.0 ** (c.level * (0.3 + 0.5) + seq.log2_value(c))) ** 2
                    * float(volume(c))
                    for c in seq.support
                    if c.level == level
                ) ** 0.5
                assert direct == pytest.approx(reduced, rel=1e-12)


class TestCollapses:
    def test_p_equals_q_collapse(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            seq = random_sequence(rng, 1, 6)
            for pq in (0.5, 1.0, 2.0):
                a = f_type_norm(seq, fp(0.3, 0.7, pq, pq)).log2_value
                b = b_type_norm(seq, bp(0.3, 0.7, pq, pq)).log2_value
                assert a == pytest.approx(b, rel=1e-12, abs=1e-12)

    def test_b_inf_inf_degenerate(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            seq = random_sequence(rng, 1, 5)
            a = b_type_norm(seq, bp(0.2, 0.0, INF, INF)).log2_value
            b = norm(seq, SpaceParams(Family.B_INF_INF, 0.2, 0, INF, INF)).log2_value
            assert a == pytest.approx(b, abs=1e-12)

    def test_large_q_approximates_sup_modification(self):
        rng = np.random.default_rng(8)
        seq = small_random_sequence(rng, dim=1, depth=4, span=1.0)
        exact = f_type_norm(seq, fp(0, 0.5, 2, INF)).linear_value
        approx = f_type_norm(seq, fp(0, 0.5, 2, 2.0**10)).linear_value
        assert approx == pytest.approx(exact, rel=0.01)

    def test_large_p_q_approximates_b_modifications(self):
        rng = np.random.default_rng(9)
        seq = small_random_sequence(rng, dim=1, depth=4, span=1.0)
        exact = b_type_norm(seq, bp(0, 0.5, INF, INF)).linear_value
        approx = b_type_norm(seq, bp(0, 0.5, 2.0**20, 2.0**20)).linear_value
        assert approx == pytest.approx(exact, rel=0.01)


class TestExactIdentitiesModule:
    def test_identities_on_1000_random_sequences(self):
        # both identities, linear relative error <= 1e-12 (relaxed to 1e-9
        # automatically when the exponent ratio exceeds 8)
        from dyadic_spaces import check_exact_identities

        rng = np.random.default_rng(10)
        for i in range(1000):
            dim = 1 + i % 2
            seq = random_sequence(rng, dim, 6 if dim == 1 else 3)
            s = float(rng.uniform(-1, 1))
            p = float(rng.choice([0.5, 1.0, 2.0, INF]))
            q = float(rng.choice([0.5, 1.0, 2.0, 3.0]))
            r = float(rng.uniform(0, 3))
            rep = check_exact_identities(seq, s, p, q, r)
            assert rep.all_ok, (i, s, p, q, r, rep.worst_ratio_low, rep.worst_ratio_high)

    def test_cmo_equals_f_with_mapped_params_direct(self):
        rng = np.random.default_rng(10)
        for i in range(50):
            seq = random_sequence(rng, 1 + i % 2, 6 if i % 2 == 0 else 3)
            s = float(rng.uniform(-1, 1))
            q = float(rng.choice([0.5, 1.0, 2.0, 3.0]))
            r = float(rng.uniform(0, 3))
            a = cmo_norm(seq, s, q, r).log2_value
            b = f_type_norm(seq, fp(s, r / q, q, q)).log2_value
            assert a == pytest.approx(b, rel=1e-12, abs=1e-9)

    def test_bbmo_equals_b_with_mapped_params_direct(self):
        rng = np.random.default_rng(11)
        for i in range(50):
            seq = random_sequence(rng, 1 + i % 2, 6 if i % 2 == 0 else 3)
            s = float(rng.uniform(-1, 1))
            p = float(rng.choice([0.5, 1.0, 2.0, INF]))
            q = float(rng.choice([0.5, 1.0, 2.0, INF]))
            a = bbmo_norm(seq, s, p, q).log2_value
            b = b_type_norm(
                seq, bp(s, 0.0 if p == INF else 1.0 / p, p, q)
            ).log2_value
            assert a == pytest.approx(b, rel=1e-12, abs=1e-9)

    def test_cmo_inf_q_drops_r(self):
        rng = np.random.default_rng(12)
        seq = random_sequence(rng, 1, 5)
        assert cmo_norm(seq, 0.3, INF, 2.0).log2_value == pytest.approx(
            f_inf_inf_norm(seq, 0.3).log2_value, abs=1e-12
        )


class TestTowerValues:
    def test_b_diagonal_truncation_counts_levels(self):
        # at the boundary exponent every level term equals 1
        for J in (0, 3, 8):
            tower = build_tower(0.0, 0.5, 1.0, 1, J).sequence
            nv = b_type_norm(tower, bp(0, 0, 2, 2))
            assert nv.linear_value == pytest.approx((J + 1) ** 0.5, rel=1e-14)

    def test_f_norm_uniformly_bounded(self):
        bound = (1 - 2**-0.5) ** -1
        prev = 0.0
        for J in (2, 4, 8, 16, 32):
            tower = build_tower(0.0, 0.5, 1.0, 1, J).sequence
            val = f_type_norm(tower, fp(0, 0.5, 1, 2)).linear_value
            assert val <= bound * (1 + 1e-12)
            assert val >= prev - 1e-12  # nondecreasing in depth
            prev = val

    def test_single_entry_inverse_weight(self):
        s_eff, j, n = 0.7, 5, 1
        mag_log2 = j * (s_eff + n / 2)
        seq = CubeSequence.from_log2_values({Q(j, 3): -mag_log2})
        assert f_inf_inf_norm(seq, s_eff).linear_value == pytest.approx(1.0)

    def test_sup_attained_at_deepest_for_large_tau(self):
        # weights grow toward depth once the evaluation exponent exceeds the
        # tower's construction exponent n (tau - 1/p)
        tower = build_tower(0.0, 2.0, 1.0, 1, 6).sequence
        nv = f_inf_inf_norm(tower, 1.5)
        assert nv.attained_at.level == 6
        # at the matching exponent all weights tie and the root wins
        tie = f_inf_inf_norm(tower, 1.0)
        assert tie.attained_at.level == 0 and tie.linear_value == 1.0


class TestScalingAndMonotonicity:
    @given(st.floats(min_value=-8, max_value=8))
    @settings(max_examples=60, deadline=None)
    def test_absolute_homogeneity(self, shift):
        rng = np.random.default_rng(13)
        seq = random_sequence(rng, 1, 5)
        scaled = scaled_log2(seq, shift)
        for params, fn in (
            (fp(0.2, 0.4, 2, 2), f_type_norm),
            (bp(0.2, 0.4, 2, INF), b_type_norm),
        ):
            a = fn(seq, params).log2_value
            b = fn(scaled, params).log2_value
            assert b == pytest.approx(a + shift, rel=1e-9, abs=1e-9)

    def test_monotone_support(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            seq = random_sequence(rng, 1, 4)
            extra_level = int(rng.integers(0, 5))
            extra = Q(extra_level, int(rng.integers(0, 2**extra_level)))
            bigger = with_entry(
                seq, extra, max(seq.log2_value(extra), float(rng.uniform(-5, 5)))
            )
            for params, fn in (
                (fp(0.1, 0.6, 1, 2), f_type_norm),
                (bp(0.1, 0.6, 2, 2), b_type_norm),
            ):
                assert (
                    fn(bigger, params).log2_value
                    >= fn(seq, params).log2_value - 1e-12
                )


class TestCandidateSetCompleteness:
    @pytest.mark.parametrize("s,tau,p,q", [(0.2, 0.7, 2, 2), (0.0, 0.4, 1, 3),
                                           (-0.3, 1.2, 2, INF)])
    def test_sup_over_all_dyadic_cubes(self, s, tau, p, q):
        # brute force over every dyadic subcube of the root down to the
        # support depth, plus five ancestor levels above the root
        rng = np.random.default_rng(23)
        for _ in range(5):
            seq = random_sequence(rng, 1, 4)
            params = fp(s, tau, p, q)
            fast = f_type_norm(seq, params).log2_value
            brute = max(
                candidate_value(seq, params, Q(j, k))
                for j in range(0, 5)
                for k in range(0, 2**j)
            )
            brute = max(
                brute,
                max(
                    candidate_value(seq, params, seq.root.ancestor_at(-d))
                    for d in range(1, 6)
                ),
            )
            assert fast == pytest.approx(brute, abs=1e-12)
            assert fast >= brute - 1e-12

    def test_b_norm_sup_over_all_dyadic_cubes(self):
        rng = np.random.default_rng(24)
        for _ in range(5):
            seq = random_sequence(rng, 1, 4)
            params = bp(0.1, 0.6, 2, 2)
            fast = b_type_norm(seq, params).log2_value
            brute = max(
                candidate_value(seq, params, Q(j, k))
                for j in range(0, 5)
                for k in range(0, 2**j)
            )
            assert fast == pytest.approx(brute, abs=1e-12)


class TestAncestorMonotonicity:
    def test_value_at_ancestors_dominated_by_root(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            seq = random_sequence(rng, 1, 5)
            for params, fn in (
                (fp(0.3, 0.8, 2, 2), f_type_norm),
                (bp(0.3, 0.8, 2, 2), b_type_norm),
            ):
                full = fn(seq, params).log2_value
                for d in range(1, 6):
                    anc = seq.root.ancestor_at(seq.root.level - d)
                    assert candidate_value(seq, params, anc) <= full + 1e-12

    def test_tau_zero_supremum_sits_at_root(self):
        rng = np.random.default_rng(16)
        for _ in range(10):
            seq = random_sequence(rng, 1, 5)
            params = fp(0.2, 0.0, 2, 2)
            nv = f_type_norm(seq, params)
            assert nv.log2_value == pytest.approx(
                candidate_value(seq, params, seq.root), abs=1e-12
            )


class TestInhomogeneous:
    def test_root_supported_equals_homogeneous(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            seq = random_sequence(rng, 1, 5)  # unit root, levels >= 0
            a = f_type_norm(seq, fp(0.1, 0.5, 2, 2)).log2_value
            b = f_type_norm(seq, fp(0.1, 0.5, 2, 2, hom=False)).log2_value
            assert a == b

    def test_negative_levels_drop_out(self):
        root = Q(-2, 0)
        values = {Q(-2, 0): 1.0, Q(-1, 0): 0.5, Q(0, 0): 0.3, Q(2, 1): -0.2}
        seq = CubeSequence.from_log2_values(values, root=root)
        hom = b_type_norm(seq, bp(0.1, 0.5, 2, 2)).log2_value
        inhom = b_type_norm(seq, bp(0.1, 0.5, 2, 2, hom=False)).log2_value
        assert inhom <= hom + 1e-12
        # the inhomogeneous value only sees the levels >= 0 part
        trimmed = CubeSequence.from_log2_values(
            {q: v for q, v in values.items() if q.level >= 0}, root=Q(0, 0)
        )
        assert inhom == pytest.approx(
            b_type_norm(trimmed, bp(0.1, 0.5, 2, 2)).log2_value, abs=1e-12
        )


class TestTieBreaking:
    def test_coarsest_then_lexicographic(self):
        # two siblings with equal weight at tau = 1, p = q = 1: the root and
        # both siblings give the same value; the root must win the tie
        seq = CubeSequence.from_values({Q(1, 0): 0.5**0.5, Q(1, 1): 0.5**0.5})
        nv = f_type_norm(seq, fp(0, 1, 1, 1))
        assert nv.attained_at == Q(0, 0)

    def test_deterministic_across_runs(self):
        rng = np.random.default_rng(18)
        seq = random_sequence(rng, 2, 3)
        params = fp(0.3, 0.4, 2, 2)
        first = f_type_norm(seq, params)
        for _ in range(3):
            again = f_type_norm(seq, params)
            assert again.log2_value == first.log2_value
            assert again.attained_at == first.attained_at


class TestJsonl:
    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(19)
        seq = random_sequence(rng, 2, 4)
        path = tmp_path / "seq.jsonl"
        save_jsonl(seq, path)
        loaded = load_jsonl(path)
        assert log2_magnitudes(loaded) == log2_magnitudes(seq)
        assert loaded.root == seq.root
        assert loaded.tree.max_depth == seq.tree.max_depth
        # double round trip is byte identical
        path2 = tmp_path / "seq2.jsonl"
        save_jsonl(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_roundtrip_index_beyond_int_string_limit(self, tmp_path):
        import random

        from dyadic_spaces.seqspace import decimal_to_int, int_to_decimal

        rng = random.Random(11)
        k = rng.getrandbits(20000)  # about 6000 decimal digits
        seq = CubeSequence.from_log2_values(
            {DyadicCube(1, 20000, (k,)): 0.25, Q(3, 5): -1.0}, root=DyadicCube.unit(1)
        )
        path = tmp_path / "deep.jsonl"
        save_jsonl(seq, path)
        loaded = load_jsonl(path)
        assert log2_magnitudes(loaded) == log2_magnitudes(seq)
        path2 = tmp_path / "deep2.jsonl"
        save_jsonl(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()
        for x in (0, -1, k, -k, 10**4000, 10**4000 - 1, rng.getrandbits(40000)):
            assert decimal_to_int(int_to_decimal(x)) == x

    def test_log2v_takes_precedence(self, tmp_path):
        path = tmp_path / "seq.jsonl"
        path.write_text(
            '{"dim": 1, "root": {"j": 0, "k": [0]}, "depth": 1}\n'
            '{"j": 1, "k": [0], "v": 999.0, "log2v": 0.0}\n'
        )
        seq = load_jsonl(path)
        assert value(seq, Q(1, 0)) == 1.0

    def test_duplicate_records_rejected(self, tmp_path):
        # the last record used to win silently: v = 1 then v = 5 gave norm 5
        from dyadic_spaces import SequenceFormatError

        path = tmp_path / "dup.jsonl"
        path.write_text(
            '{"dim": 1, "root": {"j": 0, "k": [0]}, "depth": 0}\n'
            '{"j": 0, "k": [0], "v": 1.0}\n'
            '{"j": 0, "k": [0], "v": 5.0}\n'
        )
        with pytest.raises(SequenceFormatError, match=r"duplicate record for Q\(j=0, k=0\)"):
            load_jsonl(path)

    def test_key_memory_bound(self):
        from dyadic_spaces.seqspace import KEY_BITS_BOUND

        cubes = {Q(10, k): 0.0 for k in range(800)}
        cubes[Q(4_000_000, 0)] = 0.0
        assert len(cubes) * 4_000_000 > KEY_BITS_BOUND
        with pytest.raises(ValueError, match="key-memory bound"):
            CubeSequence.from_log2_values(cubes, root=Q(0, 0))

    def test_zero_magnitudes_are_validated(self):
        with pytest.raises(ValueError, match="outside the root"):
            CubeSequence.from_values({Q(1, 0): 1.0, Q(1, 2): 0.0}, root=Q(0, 0))
        seq = CubeSequence.from_values({Q(1, 0): 1.0, Q(3, 7): 0.0}, root=Q(0, 0))
        assert seq.support == (Q(1, 0),)
        assert seq.max_depth == 3  # the zero record still counts for the depth

    def test_deep_zero_record_keeps_no_wide_key(self):
        # a zero record counts toward the key-memory bound, but the keys kept
        # are only as wide as the deepest nonzero record
        values = {DyadicCube(2, 3, (k, 7 - k)): 1.0 for k in range(8)}
        values[DyadicCube(2, 100_000, (0, 0))] = 0.0
        seq = CubeSequence.from_values(values)
        assert seq.max_depth == 100_000
        assert seq.geometry.depth == 3
        assert max(seq.geometry.key).bit_length() <= 2 * 3
        assert log2_magnitudes(seq) == {c: 0.0 for c in list(values)[:8]}

    @pytest.mark.parametrize("dim,depth", [(1, 70), (2, 5), (2, 40), (3, 3), (3, 30)])
    def test_views_rebuild_the_records(self, dim, depth):
        import random

        rng = random.Random(100 * dim + depth)
        root = DyadicCube(dim, -1, tuple(rng.randrange(-2, 2) for _ in range(dim)))
        values = {}
        for d in [depth] + [rng.randint(0, depth) for _ in range(40)]:
            index = tuple((r << d) + rng.randrange(1 << d) for r in root.index)
            values[DyadicCube(dim, root.level + d, index)] = rng.uniform(-3, 3)
        seq = CubeSequence.from_log2_values(values, root=root)
        assert list(seq.support) == sorted(values, key=DyadicCube.sort_key)
        assert log2_magnitudes(seq) == values

    def test_each_line_holds_one_value(self, tmp_path):
        from dyadic_spaces import SequenceFormatError

        path = tmp_path / "seq.jsonl"
        header = '{"dim": 1, "root": {"j": 0, "k": [0]}, "depth": 1}\n'
        path.write_text(header + '  {"j": 1, "k": [1], "v": 2.0}\t\n')
        assert value(load_jsonl(path), Q(1, 1)) == 2.0
        path.write_text(header + '{"j": 1, "k": [1], "v": 2.0} {"j": 1, "k": [0], "v": 1.0}\n')
        with pytest.raises(SequenceFormatError, match="line 2: Extra data"):
            load_jsonl(path)
        path.write_text(header + '\n{"j": 1, "k": [1.0], "v": 2.0}\n')
        with pytest.raises(SequenceFormatError, match="line 3: .* a list of integers"):
            load_jsonl(path)

    def test_malformed_raises_format_error(self, tmp_path):
        from dyadic_spaces import SequenceFormatError

        path = tmp_path / "bad.jsonl"
        path.write_text('{"dim": 1}\n')
        with pytest.raises(SequenceFormatError):
            load_jsonl(path)


@st.composite
def sparse_fields(draw):
    """Mixed-depth sparse supports clustered around one random path, so that
    chains, branch points and ancestor pairs are common; on the deeper paths,
    sometimes with a run of 64 or more consecutive support levels."""
    dim = draw(st.integers(1, 3))
    root = DyadicCube(
        dim, draw(st.sampled_from([0, -2])),
        tuple(draw(st.integers(-2, 2)) for _ in range(dim)),
    )
    depth = draw(st.sampled_from([3, 8, 30, 70, 100]))
    trunk = [draw(st.integers(0, 2**depth - 1)) for _ in range(dim)]
    values = {}
    if depth >= 70 and draw(st.booleans()):
        top = draw(st.integers(0, depth - 63))
        run = draw(st.lists(st.floats(-4, 4), min_size=64, max_size=depth + 1 - top))
        for d, v in enumerate(run, top):
            rel = [t >> (depth - d) for t in trunk]
            index = tuple((r << d) + k for r, k in zip(root.index, rel))
            values[DyadicCube(dim, root.level + d, index)] = v
    for _ in range(draw(st.integers(0, 6))):
        d = draw(st.integers(0, depth))
        rel = [((t >> (depth - d)) ^ draw(st.integers(0, 3))) % (1 << d) for t in trunk]
        cube = DyadicCube(dim, root.level + d, tuple((r << d) + k for r, k in zip(root.index, rel)))
        values[cube] = draw(st.sampled_from([-1.0, 0.0, 0.5, 2.0]) | st.floats(-4, 4))
    return CubeSequence.from_log2_values(values, root=root)


def assert_same_supremum(nv, reference):
    best, cube, values = reference
    if best == -INF:
        assert nv.log2_value == -INF
    else:
        assert nv.log2_value == pytest.approx(best, abs=1e-12)
    if nv.attained_at != cube:
        assert abs(values[nv.attained_at] - values[cube]) < 1e-12


class TestCompressedCandidates:
    """The compressed candidate set against the full prefix enumeration."""

    @given(
        sparse_fields(),
        st.sampled_from([-0.75, -0.25, 0.0, 0.5, 1.0, 2.0]),
        st.sampled_from([-0.5, 0.0, 0.3]),
        st.sampled_from([0.5, 1.0, 2.0]),
        st.sampled_from([0.5, 2.0, INF]),
        st.sampled_from([0.0, 0.5, 2.0]),
        st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_full_enumeration(self, seq, tau, s, p, q, r, hom):
        from _oracles import path_from, reference_candidates, reference_supremum
        from dyadic_spaces import seqspace

        geo = seq.geometry
        nodes = [geo.cube(i, level) for i, level in enumerate(geo.level.tolist())]
        assert nodes == sorted(seq.support, key=lambda c: path_from(c, seq.root))
        assert geo.cand_level.size <= max(1, 2 * len(seq))
        cands = reference_candidates(seq)
        n = seq.dim
        for nv, kern, slope, homogeneous in (
            (
                f_type_norm(seq, fp(s, tau, p, q, hom), allow_negative_tau=True),
                seqspace._FKernel(geo, s, p, q),
                tau * n,
                hom,
            ),
            (
                b_type_norm(seq, bp(s, tau, INF if q == 0.5 else p, q, hom),
                            allow_negative_tau=True),
                seqspace._BKernel(geo, s, INF if q == 0.5 else p, q),
                tau * n,
                hom,
            ),
            (
                cmo_norm(seq, s, q, r),
                seqspace._BKernel(geo, s, q, q),
                0.0 if q == INF else r * n / q,
                True,
            ),
            (
                bbmo_norm(seq, s, p, q),
                seqspace._BKernel(geo, s, p, q),
                0.0 if p == INF else n / p,
                True,
            ),
        ):
            assert_same_supremum(nv, reference_supremum(seq, kern, slope, homogeneous, cands))
        # the batched contents against the per-candidate loop, on every
        # candidate and on the ancestor-of-root range; the inhomogeneous
        # loop on the ranges at levels >= 0, the only ones its supremum reads
        lo = np.append(geo.cand_lo, 0)
        hi = np.append(geo.cand_hi, geo.m)
        level = np.append(geo.cand_level, seq.root.level - 3)
        b_contents = seqspace._BKernel(geo, s, p, q).contents(lo, hi)
        cut = level >= 0
        for got, want in (
            (
                seqspace._FKernel(geo, s, p, q).contents(lo, hi),
                loop_f_contents(geo, s, p, q, lo, hi),
            ),
            (b_contents, loop_b_contents(geo, s, p, q, lo, hi, level)),
            (b_contents[cut], loop_b_contents(geo, s, p, q, lo[cut], hi[cut], level[cut], False)),
            (
                seqspace._BKernel(geo, s, q, q).contents(lo, hi),
                loop_b_contents(geo, s, q, q, lo, hi, level),
            ),
        ):
            assert got.tolist() == pytest.approx(want, rel=1e-12, abs=1e-12)
        weights = {
            c: c.level * (s + seq.dim / 2) + v for c, v in log2_magnitudes(seq).items()
        }
        nv = f_inf_inf_norm(seq, s)
        if weights:
            best = max(weights.values())
            assert nv.log2_value == best
            assert nv.attained_at == min(
                (c for c, v in weights.items() if v == best), key=DyadicCube.sort_key
            )

    def test_deep_two_cube_field_compiles_few_candidates(self):
        deep = Q(20000, 12345)
        seq = CubeSequence.from_values({Q(0, 0): 1.0, deep: 0.5})
        assert seq.geometry.cand_level.size <= 4
        params = fp(0, 0.5, 2, 2)
        nv = f_type_norm(seq, params)
        assert nv.attained_at == deep
        assert nv.log2_value == candidate_value(seq, params, deep)
        # every cube of the chain gap holds the same support as the deep cube
        mid = deep.ancestor_at(10000)
        assert candidate_value(seq, params, mid) == pytest.approx(
            nv.log2_value - 0.5 * 10000, abs=1e-9
        )

    def test_gap_tie_goes_to_coarsest_gap_cube(self):
        # a slope too small to move the float value: every cube of the gap
        # ties with the support cube below it, and the coarsest one wins
        seq = CubeSequence.from_log2_values({Q(6, 5): 40.0}, root=Q(0, 0))
        nv = f_type_norm(seq, fp(0, 1e-18, 2, 2))
        assert nv.attained_at == Q(0, 0)
        # a slope that moves the value by one ulp every few levels: the gap's
        # top value is shared by the levels 9..12, found by bisection
        from _oracles import reference_supremum
        from dyadic_spaces import seqspace

        seq = CubeSequence.from_log2_values(
            {Q(0, 0): -60.0, Q(12, 5): 40.0}, root=Q(0, 0)
        )
        nv = f_type_norm(seq, fp(0, 2e-15, 2, 2))
        best, cube, _ = reference_supremum(seq, seqspace._FKernel(seq.geometry, 0, 2, 2), 2e-15)
        assert nv.attained_at == cube == Q(9, 0)
        assert nv.log2_value == best


class TestKernelMemory:
    """No kernel allocates a nodes x levels table: on a 2049-level tower and
    on 21 cubes 200000 levels deep (both 33.6 MB as such a table), every
    norm's own allocations stay under a fixed bound."""

    BOUND = 8 * 2**20

    @pytest.mark.parametrize("field", ["tower", "deep-sparse"])
    def test_peak_under_bound(self, field):
        import random
        import tracemalloc

        if field == "tower":
            seq = build_tower(0, 0.5, 1, 1, 2048).sequence
        else:
            rng = random.Random(5)
            k = rng.getrandbits(200000)
            seq = CubeSequence.from_log2_values(
                {Q(j, k >> (200000 - j)): rng.uniform(-3, 3) for j in range(199980, 200001)},
                root=Q(0, 0),
            )
        seq.geometry
        for fn, params in (
            (b_type_norm, bp(0, 0.5, 1, 2)),
            (b_type_norm, bp(0, 0.5, INF, 2)),
            (f_type_norm, fp(0, 0.5, 1, 2)),
            (f_type_norm, fp(0, 0.5, 1, INF)),
        ):
            tracemalloc.start()
            try:
                fn(seq, params)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < self.BOUND, (params, peak)


class TestCertifyMemory:
    """Certifying a depth schedule holds all of its towers at once, as one
    forest; its own allocations stay under a fixed bound all the same."""

    BOUND = 4 * 2**20

    def test_peak_under_bound(self):
        import tracemalloc

        certify_separation(0, 1, INF, 0.5, depths=(4, 8))  # imports and caches
        tracemalloc.start()
        try:
            certify_separation(0, 1, INF, 0.5, depths=(256, 512, 1024, 2048))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < self.BOUND, peak


# one CLI norm per family, with finite and infinite exponents
NORM_ARGS = (
    ("--family", "f", "--tau", "1/2", "--p", "1", "--q", "2"),
    ("--family", "f", "--s", "1/2", "--p", "2", "--q", "inf"),
    ("--family", "b", "--tau", "1/4", "--p", "inf", "--q", "2"),
    ("--family", "b", "--tau", "1/2", "--p", "2", "--q", "2", "--inhomogeneous"),
    ("--family", "cmo", "--q", "2", "--r", "1/2"),
    ("--family", "bbmo", "--p", "1", "--q", "inf"),
    ("--family", "finfinf", "--s", "1/2"),
    ("--family", "binfinf", "--s=-1/2"),
)


def _cli_norms(path):
    """Every NORM_ARGS output for the file at ``path``, as bytes."""
    from dyadic_spaces.cli import main

    out = path.with_suffix(".out")
    docs = []
    for args in NORM_ARGS:
        assert main(["norm", *args, "--in", str(path), "--out", str(out)]) == 0
        docs.append(out.read_bytes())
    return docs


class TestRecordProperties:
    """What a JSONL file's record order and zero records may not change."""

    @given(sparse_fields(), st.randoms(use_true_random=False))
    @settings(max_examples=25, deadline=None)
    def test_shuffled_records_give_identical_output(self, seq, rnd):
        import tempfile
        from pathlib import Path

        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.jsonl"
            save_jsonl(seq, path)
            before = _cli_norms(path)
            header, *records = path.read_text().splitlines()
            rnd.shuffle(records)
            path.write_text("\n".join([header, *records]) + "\n")
            assert _cli_norms(path) == before

    @given(sparse_fields(), st.randoms(use_true_random=False))
    @settings(max_examples=25, deadline=None)
    def test_zero_records_change_no_norm(self, seq, rnd):
        import json
        import tempfile
        from pathlib import Path

        root, depth = seq.root, seq.tree.max_depth
        zeros = set()
        for _ in range(rnd.randint(1, 5)):
            d = rnd.randint(0, depth)
            index = tuple((r << d) + rnd.getrandbits(d) for r in root.index)
            cube = DyadicCube(seq.dim, root.level + d, index)
            if cube not in log2_magnitudes(seq):
                zeros.add(cube)
        padded = CubeSequence.from_log2_values(  # zero magnitudes: log2 -inf
            {**log2_magnitudes(seq), **dict.fromkeys(zeros, -INF)}, root=root
        )
        for fn, params in (
            (f_type_norm, fp(0.5, 0.25, 1, 2)),
            (b_type_norm, bp(0, 0.5, 2, INF)),
        ):
            assert fn(padded, params) == fn(seq, params)
        assert cmo_norm(padded, 0, 2, 0.5) == cmo_norm(seq, 0, 2, 0.5)
        assert bbmo_norm(padded, 0, 1, 2) == bbmo_norm(seq, 0, 1, 2)
        assert f_inf_inf_norm(padded, 0.5) == f_inf_inf_norm(seq, 0.5)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.jsonl"
            save_jsonl(seq, path)
            before = _cli_norms(path)
            lines = path.read_text().splitlines()
            for cube in zeros:
                record = json.dumps({"j": cube.level, "k": list(cube.index), "v": 0.0})
                lines.insert(rnd.randint(1, len(lines)), record)
            path.write_text("\n".join(lines) + "\n")
            assert _cli_norms(path) == before
