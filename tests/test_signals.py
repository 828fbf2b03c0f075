"""The analyzer's seeded signals, synthesized by one inverse FFT of their
known spectra, against the direct per-mode sums in ``tests/_oracles.py``.

Agreement is required within 1e-12 times the sum of the absolute
coefficients, which bounds every sample of either sum; the generator must
be left in the same state as the direct sum leaves it."""
import math

import numpy as np
import pytest

from _oracles import reference_random_bandlimited, reference_sawtooth_smoothed
from dyadic_spaces import GridFunction, band_limit_fraction


def assert_close(got: np.ndarray, want: np.ndarray, coefficients) -> None:
    scale = sum(map(abs, coefficients))
    assert got.shape == want.shape and got.dtype == np.float64
    assert float(np.abs(got - want).max(initial=0.0)) <= 1e-12 * scale


def both(dim, L, seed, **kwargs):
    """The synthesized signal and the direct sum from one seed, with the
    generator states each leaves."""
    rng = np.random.default_rng(seed)
    f = GridFunction.random_bandlimited(dim, L, rng, **kwargs)
    ref = np.random.default_rng(seed)
    want, drawn = reference_random_bandlimited(dim, L, ref, **kwargs)
    assert rng.bit_generator.state == ref.bit_generator.state
    return f, want, drawn


@pytest.mark.parametrize("dim,L", [(1, 3), (1, 6), (1, 8), (1, 11), (2, 3), (2, 5), (2, 7)])
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_random_bandlimited_matches_direct_sum(dim, L, seed):
    f, want, drawn = both(dim, L, seed)
    assert (f.dim, f.log_resolution, len(drawn)) == (dim, L, 20)
    assert_close(f.samples, want, [amp for _, amp, _ in drawn])
    assert band_limit_fraction(f, L - 2) <= 1e-15


# j_hi as a function of L
TOPS = {
    "0": lambda L: 0, "1": lambda L: 1, "L-3": lambda L: L - 3,
    "L-1": lambda L: L - 1, "L": lambda L: L, "L+2": lambda L: L + 2,
}


@pytest.mark.parametrize("dim,L", [(1, 5), (1, 9), (2, 4), (2, 6)])
@pytest.mark.parametrize("n_modes", [0, 1, 3, 57])
@pytest.mark.parametrize("top", TOPS)
def test_modes_and_band_edges(dim, L, n_modes, top):
    """From j_hi = L - 1 up, modes alias (m and m + 2**L share a bin, and
    -2**(L-1) is 2**(L-1)), and the FFT sum is still the direct sum on the
    grid."""
    j_hi = TOPS[top](L)
    f, want, drawn = both(dim, L, 11 * L + n_modes, n_modes=n_modes, j_hi=j_hi)
    assert len(drawn) == n_modes
    assert_close(f.samples, want, [amp for _, amp, _ in drawn])
    if j_hi <= L - 3:
        assert band_limit_fraction(f, L - 2) <= 1e-15


@pytest.mark.parametrize("dim", [1, 2])
def test_repeated_and_aliased_modes_add_in_one_bin(dim):
    # |m| <= 1 leaves 2 * dim modes to draw 30 times: every mode repeats
    f, want, drawn = both(dim, 4, 3, n_modes=30, j_hi=0)
    modes = [mode for mode, _, _ in drawn]
    assert len(set(modes)) == 2 * dim
    assert_close(f.samples, want, [amp for _, amp, _ in drawn])
    # at j_hi = L, m and m - 2**L fall in one bin: (16,) and (0,) are not
    # drawn (|m| = 0 is refused), but 15 and -1 are one bin at L = 4
    f, want, drawn = both(1, 4, 5, n_modes=60, j_hi=4)
    bins = [mode[0] % 16 for mode, _, _ in drawn]
    assert len(set(bins)) < len({mode for mode, _, _ in drawn})
    assert_close(f.samples, want, [amp for _, amp, _ in drawn])


def test_zero_modes_is_the_zero_signal():
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    f = GridFunction.random_bandlimited(2, 5, rng, n_modes=0)
    assert not f.samples.any() and rng.bit_generator.state == state


def test_negative_mode_count_is_refused_before_any_draw():
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=r"^n_modes must be >= 0, got -1$"):
        GridFunction.random_bandlimited(1, 6, rng, n_modes=-1)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("L", [3, 4, 6, 9, 11, 13])
def test_sawtooth_matches_direct_sum(L):
    f = GridFunction.sawtooth_smoothed(1, L)
    want, coefficients = reference_sawtooth_smoothed(L)
    assert len(coefficients) == 1 << (L - 3)
    assert_close(f.samples, want, coefficients)
    assert band_limit_fraction(f, L - 2) <= 1e-15


def test_sawtooth_spectrum_is_the_known_one():
    """Its forward FFT gives back -i N c_m / 2 at m and the conjugate at -m."""
    L = 8
    N, M = 1 << L, 1 << (L - 3)
    spectrum = GridFunction.sawtooth_smoothed(1, L).spectrum()
    c = np.array([math.exp(-3.0 * (m / M) ** 2) / m for m in range(1, M + 1)])
    assert np.allclose(spectrum[1 : M + 1], -0.5j * N * c, rtol=0, atol=1e-12)
    assert np.allclose(spectrum[N - M :][::-1], 0.5j * N * c, rtol=0, atol=1e-12)
    assert np.abs(spectrum[M + 1 : N - M]).max() < 1e-12 and abs(spectrum[0]) < 1e-12


def test_sawtooth_is_one_dimensional():
    with pytest.raises(ValueError, match="one-dimensional"):
        GridFunction.sawtooth_smoothed(2, 6)
