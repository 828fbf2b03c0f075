import math

import numpy as np
import pytest

from dyadic_spaces import (
    DyadicCube,
    Family,
    GridFunction,
    SpaceParams,
    band_limit_fraction,
    build_filter_bank,
    coefficients,
    function_norm,
    load_grid_function,
    lp_convolve,
    transform_consistency,
    save_grid_function,
)
from dyadic_spaces.analyze import annulus_profile, cap_profile

from _oracles import complex_harmonic, log2_magnitudes

INF = math.inf


@pytest.fixture(scope="module")
def bank():
    return build_filter_bank(8)


class TestFilterBank:
    def test_support_conditions_exact(self, bank):
        assert annulus_profile(np.array([0.49, 0.5, 2.0, 2.01, 0.0])).tolist() == [
            0.0,
            0.0,
            0.0,
            0.0,
            0.0,
        ]
        assert cap_profile(np.array([2.0, 2.5])).tolist() == [0.0, 0.0]
        assert cap_profile(np.array([0.0, 1.0, 5 / 3 * 0.95])).tolist() == [
            1.0,
            1.0,
            1.0,
        ]

    def test_lower_bound_on_lattice(self, bank):
        c = bank.lower_bound_constant
        assert c > 0
        N = 1 << bank.log_resolution
        for j in bank.valid_levels:
            m = np.arange(1, N // 2 + 1, dtype=float)
            r = m / (1 << j)
            band = r[(r >= 0.6) & (r <= 5 / 3)]
            if band.size:
                assert annulus_profile(band).min() >= c - 1e-15
            low = r[r <= 5 / 3]
            if low.size:
                assert cap_profile(low).min() >= c - 1e-15

    def test_radial_symmetry(self, bank):
        """A 2-D mode is multiplied by the profile at its radius, whatever
        its direction."""
        rng = np.random.default_rng(0)
        j = 3
        for _ in range(10):
            mode = tuple(int(x) for x in rng.integers(-12, 13, size=2))
            f = complex_harmonic(2, 8, mode)
            expected = annulus_profile(np.array([math.hypot(*mode) / (1 << j)])).item()
            ratio = lp_convolve(f, bank, j).samples / f.samples
            assert np.allclose(ratio, expected, atol=1e-12)

    def test_rejects_tiny_resolution(self):
        with pytest.raises(ValueError):
            build_filter_bank(2)

    def test_valid_levels(self, bank):
        assert bank.valid_levels == range(0, 7)


class TestConvolve:
    def test_out_of_band_harmonic_zeroed(self, bank):
        # |m| = 32 = 2^5 is outside the level-2 annulus [2, 8]
        f = complex_harmonic(1, 8, 32)
        out = lp_convolve(f, bank, 2)
        assert float(np.abs(out.samples).max()) < 1e-12

    def test_single_mode_multiplies_by_profile(self, bank):
        j = 4
        f = complex_harmonic(1, 8, 1 << j)
        out = lp_convolve(f, bank, j)
        expected = annulus_profile(np.array([1.0])).item()
        ratio = out.samples / f.samples
        assert np.allclose(ratio, expected, atol=1e-12)

    def test_linearity(self, bank):
        rng = np.random.default_rng(1)
        f = GridFunction.random_bandlimited(1, 8, rng)
        g = GridFunction.random_bandlimited(1, 8, rng)
        both = GridFunction(1, 8, 2.0 * f.samples - 3.0 * g.samples)
        lhs = lp_convolve(both, bank, 3).samples
        rhs = 2.0 * lp_convolve(f, bank, 3).samples - 3.0 * lp_convolve(g, bank, 3).samples
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_annulus_energy_leakage(self, bank):
        rng = np.random.default_rng(2)
        f = GridFunction.random_bandlimited(1, 8, rng)
        total = float(np.sum(np.abs(f.samples) ** 2)) / f.samples.size
        for j in (2, 3, 4):
            out = lp_convolve(f, bank, j)
            spec = np.abs(out.spectrum()) ** 2
            radii = np.abs(np.fft.fftfreq(256) * 256)
            outside = spec[(radii < 2.0 ** (j - 1)) | (radii > 2.0 ** (j + 1))].sum()
            assert outside / (total * 256) < 1e-12

    def test_level_range_enforced(self, bank):
        f = GridFunction.zeros(1, 8)
        with pytest.raises(ValueError):
            lp_convolve(f, bank, 7)


class TestCoefficients:
    def test_zero_function(self, bank):
        seq = coefficients(GridFunction.zeros(1, 8), bank, 5)
        assert len(seq) == 0

    def test_harmonic_levels_localized(self, bank):
        j0 = 4
        f = GridFunction.harmonic(1, 8, 1 << j0)
        seq = coefficients(f, bank, 6)
        mags = log2_magnitudes(seq)
        peak = max(v for c, v in mags.items())
        for cube, v in mags.items():
            if abs(cube.level - j0) > 1:
                assert v < peak - 40  # > 12 orders of magnitude below

    def test_refinement_stability_bandlimited(self):
        rng = np.random.default_rng(3)
        f8 = GridFunction.random_bandlimited(1, 8, rng, j_hi=4)
        # same modes realized at the finer grid: regenerate with same seed
        rng = np.random.default_rng(3)
        f9 = GridFunction.random_bandlimited(1, 9, rng, j_hi=4)
        b8, b9 = build_filter_bank(8), build_filter_bank(9)
        s8 = log2_magnitudes(coefficients(f8, b8, 5))
        s9 = log2_magnitudes(coefficients(f9, b9, 5))
        common = set(s8) & set(s9)
        assert common
        peak = max(s8.values())
        for cube in common:
            if s8[cube] > peak - 30:
                assert s8[cube] == pytest.approx(s9[cube], abs=1e-10)

    def test_parseval_energy_stable_under_refinement(self):
        rng = np.random.default_rng(4)
        f8 = GridFunction.random_bandlimited(1, 8, rng, j_hi=4)
        rng = np.random.default_rng(4)
        f9 = GridFunction.random_bandlimited(1, 9, rng, j_hi=4)
        def energy(f, L):
            seq = coefficients(f, build_filter_bank(L), 5)
            return sum(2.0 ** (2 * v) for v in log2_magnitudes(seq).values())
        e8, e9 = energy(f8, 8), energy(f9, 9)
        assert e9 == pytest.approx(e8, rel=0.02)


class TestFunctionNorm:
    def test_zero_function(self, bank):
        nv = function_norm(
            GridFunction.zeros(1, 8), bank, SpaceParams(Family.F_TYPE, 0, 0, 2, 2), 5
        )
        assert nv.is_zero

    @pytest.mark.parametrize("family", [Family.F_TYPE, Family.B_TYPE])
    def test_zero_function_attained_at_unit_cube(self, bank, family):
        # every cube ties at -inf; the tie goes to the coarsest level
        nv = function_norm(
            GridFunction.zeros(1, 8), bank, SpaceParams(family, 0, 0, 2, 2), 5
        )
        assert nv.log2_value == -INF
        assert nv.attained_at == DyadicCube.unit(1)

    def test_harmonic_parseval_value(self, bank):
        # cos at |m| = 2^j0, s=0, tau=0, p=q=2: norm^2 = sum_j profile(2^(j0-j))^2 / 2
        j0 = 4
        f = GridFunction.harmonic(1, 8, 1 << j0)
        nv = function_norm(f, bank, SpaceParams(Family.F_TYPE, 0, 0, 2, 2), 6)
        expected = math.sqrt(
            sum(
                annulus_profile(np.array([2.0 ** (j0 - j)])).item() ** 2 / 2
                for j in (j0 - 1, j0, j0 + 1)
            )
        )
        assert nv.linear_value == pytest.approx(expected, rel=1e-9)

    def test_inhomogeneous_flag_is_identity_on_unit_torus(self, bank):
        rng = np.random.default_rng(5)
        f = GridFunction.random_bandlimited(1, 8, rng)
        hom = function_norm(f, bank, SpaceParams(Family.F_TYPE, 0.2, 0.3, 2, 2), 5)
        inhom = function_norm(
            f, bank, SpaceParams(Family.F_TYPE, 0.2, 0.3, 2, 2, homogeneous=False), 5
        )
        assert hom.log2_value == inhom.log2_value

    def test_b_family_and_usual_modifications(self, bank):
        rng = np.random.default_rng(6)
        f = GridFunction.random_bandlimited(1, 8, rng)
        for p, q in [(2, 2), (INF, 2), (2, INF), (INF, INF)]:
            nv = function_norm(f, bank, SpaceParams(Family.B_TYPE, 0.1, 0.2, p, q), 5)
            assert nv.linear_value > 0

    def test_dim2_runs(self):
        bank6 = build_filter_bank(6)
        f = GridFunction.harmonic(2, 6, (4, 0))
        nv = function_norm(f, bank6, SpaceParams(Family.F_TYPE, 0, 0, 2, 2), 3)
        assert nv.linear_value > 0


class TestTransformConsistency:
    def test_zero_function_ratio_undefined(self, bank):
        rep = transform_consistency(
            GridFunction.zeros(1, 8), bank, SpaceParams(Family.F_TYPE, 0, 0, 2, 2), 5
        )
        assert rep.ratio is None

    def test_band_limited_family_ratio_band(self, bank):
        params = SpaceParams(Family.F_TYPE, 0.0, 0.0, 2, 2)
        ratios = []
        for seed in range(12):
            f = GridFunction.random_bandlimited(
                1, 8, np.random.default_rng(100 + seed), j_hi=5
            )
            rep = transform_consistency(f, bank, params, 6)
            assert rep.band_limited
            ratios.append(rep.ratio)
        assert max(ratios) / min(ratios) <= 50

    def test_non_band_limited_flagged(self, bank):
        f = GridFunction.harmonic(1, 8, 100)  # beyond 2^(4+1) for max_level 4
        rep = transform_consistency(f, bank, SpaceParams(Family.F_TYPE, 0, 0, 2, 2), 4)
        assert not rep.band_limited

    def test_dilation_covariance(self, bank):
        params = SpaceParams(Family.F_TYPE, 0.0, 0.0, 2, 2)
        base = GridFunction.harmonic(1, 8, 8)
        doubled = GridFunction.harmonic(1, 8, 16)
        r1 = transform_consistency(base, bank, params, 6)
        r2 = transform_consistency(doubled, bank, params, 6)
        assert r2.ratio == pytest.approx(r1.ratio, rel=0.10)

    def test_scale_uniform_across_j0(self, bank):
        params = SpaceParams(Family.F_TYPE, 0.0, 0.0, 2, 2)
        ratios = []
        for j0 in range(1, 6):  # [1, L-3]
            f = GridFunction.harmonic(1, 8, 1 << j0)
            ratios.append(transform_consistency(f, bank, params, 6).ratio)
        assert max(ratios) / min(ratios) - 1 < 0.10


class TestGridFunction:
    @pytest.mark.parametrize("bad", [math.nan, INF, -INF])
    def test_rejects_non_finite_samples(self, bad):
        samples = np.zeros(1 << 6)
        samples[3] = bad
        with pytest.raises(ValueError, match="finite"):
            GridFunction(1, 6, samples)

    def test_load_rejects_non_finite_samples(self, tmp_path):
        base = tmp_path / "grid.bin"
        save_grid_function(GridFunction.zeros(2, 3), base)
        samples = np.zeros((8, 8))
        samples[1, 2] = math.nan
        base.write_bytes(samples.astype("<f8").tobytes())
        with pytest.raises(ValueError, match="finite"):
            load_grid_function(base)


class TestGridIO:
    @pytest.mark.parametrize("complex_", [False, True])
    def test_roundtrip(self, tmp_path, complex_):
        rng = np.random.default_rng(7)
        if complex_:
            f = complex_harmonic(1, 6, 5)
        else:
            f = GridFunction.random_bandlimited(1, 6, rng, j_hi=3)
        base = tmp_path / "grid.bin"
        save_grid_function(f, base)
        g = load_grid_function(base)
        assert g.dim == f.dim and g.log_resolution == f.log_resolution
        assert np.array_equal(g.samples, f.samples)

    def test_band_limit_fraction(self):
        f = GridFunction.harmonic(1, 8, 4)
        assert band_limit_fraction(f, 3) == pytest.approx(0.0, abs=1e-15)
        g = GridFunction.harmonic(1, 8, 64)
        assert band_limit_fraction(g, 3) == pytest.approx(1.0, rel=1e-12)
