"""The analyzer's real-signal band-passes, taken on the half spectrum
(``rfftn``, one ``irfftn`` per level), against the full-spectrum route in
``tests/_oracles.py``; complex signals keep the full spectrum."""
import tracemalloc

import numpy as np
import pytest

from _oracles import (
    complex_harmonic,
    full_spectrum_band_limit_fraction,
    full_spectrum_band_pass,
)
from dyadic_spaces import GridFunction, band_limit_fraction, build_filter_bank, lp_convolve
from dyadic_spaces.analyze import band_magnitudes

L_OF = {1: 8, 2: 6}


def _signals():
    """(id, signal) pairs: random band-limited, the sawtooth, and harmonics at
    every shift 2**j0 up to the Nyquist bin 2**(L-1), on the diagonal and on
    an axis in 2-D."""
    out = []
    for dim, L in L_OF.items():
        out.append((f"random-{dim}d", GridFunction.random_bandlimited(
            dim, L, np.random.default_rng(dim))))
        for j0 in range(L):
            out.append((f"harmonic-{dim}d-{j0}", GridFunction.harmonic(dim, L, 1 << j0)))
        if dim == 2:
            for j0 in (1, L - 1):
                out.append((f"axis-harmonic-{j0}", GridFunction.harmonic(2, L, (1 << j0, 0))))
    out.append(("sawtooth", GridFunction.sawtooth_smoothed(1, L_OF[1])))
    return out


SIGNALS = _signals()
IDS = [name for name, _ in SIGNALS]


@pytest.mark.parametrize("f", [f for _, f in SIGNALS], ids=IDS)
def test_band_magnitudes_match_the_full_spectrum(f):
    L = f.log_resolution
    bank = build_filter_bank(L)
    bands = band_magnitudes(f, bank, L - 2)
    want = [np.abs(full_spectrum_band_pass(f, bank, j)) for j in bank.valid_levels]
    # the Nyquist harmonic sits where every profile is 0: its bands are exact
    # zeros either way, and the bound asks for equality
    scale = max(float(w.max()) for w in want)
    for got, ref in zip(bands, want, strict=True):
        assert got.dtype == np.float64 and got.shape == ref.shape
        assert float(np.abs(got - ref).max()) <= 1e-15 * scale


@pytest.mark.parametrize("f", [f for _, f in SIGNALS], ids=IDS)
def test_band_magnitudes_are_the_per_level_band_passes(f):
    # bitwise: the function norm's oracle band-passes one level at a time
    L = f.log_resolution
    bank = build_filter_bank(L)
    bands = band_magnitudes(f, bank, L - 2)
    for j, band in enumerate(bands):
        single = lp_convolve(f, bank, j).samples
        assert single.dtype == np.float64
        assert np.array_equal(band, np.abs(single))


@pytest.mark.parametrize("f", [f for _, f in SIGNALS], ids=IDS)
def test_band_limit_fraction_matches_the_full_spectrum(f):
    for max_level in range(f.log_resolution - 1):
        got = band_limit_fraction(f, max_level)
        assert abs(got - full_spectrum_band_limit_fraction(f, max_level)) <= 1e-12


def test_band_limit_fraction_counts_mirrored_columns_twice():
    # cos at the Nyquist bin lives in one unmirrored column, cos at mode 1 in a
    # mirrored pair: each holds half the energy, so the fraction is 1/2 exactly
    L = 6
    N = 1 << L
    x = np.arange(N) / N
    f = GridFunction(1, L, np.cos(2 * np.pi * x) + np.cos(np.pi * N * x) / np.sqrt(2))
    assert band_limit_fraction(f, 0) == pytest.approx(0.5, rel=1e-12)


@pytest.mark.parametrize("dim", [1, 2])
def test_complex_input_keeps_the_full_spectrum(dim):
    L = L_OF[dim]
    bank = build_filter_bank(L)
    f = complex_harmonic(dim, L, (3,) * dim)
    for j in bank.valid_levels:
        out = lp_convolve(f, bank, j).samples
        assert np.iscomplexobj(out)
        assert np.array_equal(out, full_spectrum_band_pass(f, bank, j))
    for max_level in bank.valid_levels:
        assert band_limit_fraction(f, max_level) == full_spectrum_band_limit_fraction(
            f, max_level
        )


def test_band_magnitudes_peak_memory():
    # one level at a time: the magnitudes so far plus a few grid-sized arrays
    # (spectrum, banded spectrum, inverse transform), not every level at once
    L = 9
    f = GridFunction.random_bandlimited(2, L, np.random.default_rng(0))
    bank = build_filter_bank(L)
    max_level = L - 2
    band_magnitudes(f, bank, max_level)  # the lattice radii are cached per grid
    tracemalloc.start()
    try:
        bands = band_magnitudes(f, bank, max_level)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (len(bands) + 4) * f.samples.size * 8, peak
