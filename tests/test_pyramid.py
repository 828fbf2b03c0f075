"""The dyadic-pyramid function norm against the per-cube reference loop, and
the analyzer's shared band-passes."""
import math

import numpy as np
import pytest

from dyadic_spaces import (
    DyadicCube,
    Family,
    GridFunction,
    SpaceParams,
    build_filter_bank,
    coefficients,
    function_norm,
    transform_consistency,
)
from dyadic_spaces.analyze import band_magnitudes

from _oracles import complex_harmonic, log2_magnitudes, reference_function_norm

INF = math.inf
RESOLUTION = {1: 7, 2: 5}  # max_level runs over 0..L-2

# (s, tau): zero, nonzero, and tau = 1/2, where at p = 2 the cube weight
# balances the cube's measure, so cubes of a harmonic tie within each level
SCALES = [(0.0, 0.0), (0.4, 0.3), (-0.6, 1.1), (0.0, 0.5)]
PARAMS = {
    Family.F_TYPE: [(2, 2), (1, 3), (3, 1.5), (2, INF), (0.5, INF)],
    Family.B_TYPE: [(2, 2), (1, 3), (2, INF), (INF, 2), (INF, INF)],
}
CASES = [(fam, p, q) for fam, pqs in PARAMS.items() for p, q in pqs]


def _signal(name: str, dim: int, L: int) -> GridFunction:
    if name == "zero":
        return GridFunction.zeros(dim, L)
    if name == "harmonic":
        return GridFunction.harmonic(dim, L, 2)
    if name == "complex-harmonic":
        return complex_harmonic(dim, L, (1,) * dim)
    rng = np.random.default_rng(10 * dim + L)
    return GridFunction.random_bandlimited(dim, L, rng, n_modes=8)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("signal", ["zero", "harmonic", "complex-harmonic", "random"])
@pytest.mark.parametrize("family,p,q", CASES)
def test_pyramid_matches_per_cube_reference(dim, signal, family, p, q):
    L = RESOLUTION[dim]
    bank = build_filter_bank(L)
    f = _signal(signal, dim, L)
    for max_level in range(L - 1):
        bands = band_magnitudes(f, bank, max_level)
        for s, tau in SCALES:
            params = SpaceParams(family, s, tau, p, q)
            best, cube, values = reference_function_norm(f, bank, params, max_level)
            for nv in (
                function_norm(f, bank, params, max_level),
                function_norm(f, bank, params, max_level, bands),
            ):
                case = (max_level, s, tau)
                if best == -INF:
                    assert nv.log2_value == -INF, case
                else:
                    assert abs(nv.log2_value - best) <= 1e-12, case
                # another cube only where it ties the reference's in floats
                if nv.attained_at != cube:
                    assert abs(values[nv.attained_at] - best) <= 1e-12, case
                    assert nv.attained_at.level == cube.level, case


@pytest.mark.parametrize("dim", [1, 2])
def test_constant_modulus_ties_across_all_cubes(dim):
    # e^(2 pi i m.x) with |m| = 2**(L-2) lives in the top band alone, where the
    # profile is 1, so at tau = 1/p every cube of every level has the same F
    # value in exact arithmetic
    L = RESOLUTION[dim]
    bank = build_filter_bank(L)
    f = complex_harmonic(dim, L, (1 << (L - 2),) + (0,) * (dim - 1))
    params = SpaceParams(Family.F_TYPE, 0, 0.5, 2, 2)
    nv = function_norm(f, bank, params, L - 2)
    best, cube, values = reference_function_norm(f, bank, params, L - 2)
    assert max(values.values()) - min(values.values()) <= 1e-12
    assert nv.log2_value == best
    assert nv.attained_at == cube


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("signal", ["zero", "harmonic", "complex-harmonic", "random"])
def test_coefficients_bit_identical_with_shared_bands(dim, signal):
    L = RESOLUTION[dim]
    bank = build_filter_bank(L)
    f = _signal(signal, dim, L)
    for max_level in range(L - 1):
        own = coefficients(f, bank, max_level)
        shared = coefficients(f, bank, max_level, band_magnitudes(f, bank, max_level))
        assert log2_magnitudes(own) == log2_magnitudes(shared)
        assert len(own) == len(shared)


def test_consistency_uses_the_same_norms():
    L = 6
    bank = build_filter_bank(L)
    f = GridFunction.random_bandlimited(2, L, np.random.default_rng(3))
    params = SpaceParams(Family.B_TYPE, 0.2, 0.3, 1, INF)
    rep = transform_consistency(f, bank, params, L - 2)
    assert rep.function_norm == function_norm(f, bank, params, L - 2)
    assert rep.entries == len(coefficients(f, bank, L - 2))


def test_band_magnitudes_checks_the_level_range():
    bank = build_filter_bank(5)
    with pytest.raises(ValueError, match="max_level 4 outside"):
        band_magnitudes(GridFunction.zeros(1, 5), bank, 4)


def test_ndindex_order_of_cubes():
    # a bump inside one level-2 cube puts the finest B maximum there when
    # tau weights small cubes heavily
    L = 6
    samples = np.zeros((1 << L, 1 << L))
    samples[40:48, 16:24] = 1.0
    f = GridFunction(2, L, samples)
    params = SpaceParams(Family.B_TYPE, 0, 3.0, INF, INF)
    nv = function_norm(f, build_filter_bank(L), params, 2)
    _, cube, _ = reference_function_norm(f, build_filter_bank(L), params, 2)
    assert nv.attained_at == cube
    assert nv.attained_at.level == 2
    assert nv.attained_at == DyadicCube(2, 2, (2, 1))
