"""Band-pass analysis of sampled periodic functions.

Functions live on the torus identified with [0,1)**n and are sampled on a
uniform 2**L grid, so convolution against the filter bank is exact discrete
Fourier multiplication on the integer frequency lattice.  The filter profile
is a reproducible smooth bump: it vanishes outside the annulus 1/2 <= |xi| <= 2,
equals 1 on [0.63, 5/3 * 0.95], and its transition pieces come from the
standard exp(-1/t) smooth step.

Every profile is radial and every seeded signal is real, so a real signal's
band-passes are taken on its half spectrum: one ``rfftn``, the profile on the
half-spectrum radii and one ``irfftn`` per level.  A complex signal keeps the
full ``fftn`` / ``ifftn`` path.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import repeat
from pathlib import Path

import numpy as np

from ._log2 import INF, NEG_INF
from ._geometry import morton_paths
from .dyadic import DyadicCube
from .seqspace import (
    CubeSequence,
    Family,
    NormValue,
    ParamError,
    SpaceParams,
    _argmax,
    check_exponents,
    norm,
)

RISE_LO = 0.5
RISE_HI = 0.6 * 1.05  # = 0.63, lower plateau edge
FALL_LO = (5.0 / 3.0) * 0.95  # upper plateau edge
FALL_HI = 2.0


def _smooth_step(t: np.ndarray) -> np.ndarray:
    """C-infinity step: 0 for t <= 0, 1 for t >= 1."""
    t = np.asarray(t, dtype=float)
    a = np.zeros_like(t)
    b = np.zeros_like(t)
    pos = t > 0
    a[pos] = np.exp(-1.0 / t[pos])
    neg = (1.0 - t) > 0
    b[neg] = np.exp(-1.0 / (1.0 - t[neg]))
    return a / (a + b)


def annulus_profile(r) -> np.ndarray:
    """Radial band-pass profile: supported in [1/2, 2], equal to 1 on the plateau."""
    r = np.asarray(r, dtype=float)
    out = np.zeros_like(r)
    plateau = (r >= RISE_HI) & (r <= FALL_LO)
    out[plateau] = 1.0
    rise = (r > RISE_LO) & (r < RISE_HI)
    out[rise] = _smooth_step((r[rise] - RISE_LO) / (RISE_HI - RISE_LO))
    fall = (r > FALL_LO) & (r < FALL_HI)
    out[fall] = _smooth_step((FALL_HI - r[fall]) / (FALL_HI - FALL_LO))
    return out


def cap_profile(r) -> np.ndarray:
    """Radial low-pass profile: 1 up to the plateau edge, 0 beyond 2."""
    r = np.asarray(r, dtype=float)
    out = np.zeros_like(r)
    out[r <= FALL_LO] = 1.0
    fall = (r > FALL_LO) & (r < FALL_HI)
    out[fall] = _smooth_step((FALL_HI - r[fall]) / (FALL_HI - FALL_LO))
    return out


@dataclass(frozen=True)
class FilterBank:
    """Dilated copies annulus_profile(2**-j |xi|) realize the band-pass at level j."""

    log_resolution: int
    lower_bound_constant: float

    @property
    def valid_levels(self) -> range:
        return range(0, self.log_resolution - 1)


def build_filter_bank(L: int) -> FilterBank:
    """Validate the profile on the integer lattice at resolution 2**L.

    The recorded constant is the measured minimum of the band-pass profile
    over all normalized lattice radii falling in the annulus [3/5, 5/3].
    """
    if L < 3:
        raise ValueError(f"L = {L} cannot host the frequency annulus at any level")
    N = 1 << L
    annulus_radii = []
    cap_radii = [np.zeros(1)]
    for j in range(0, L - 1):
        m = np.arange(1, N // 2 + 1, dtype=float)
        r = m / float(1 << j)
        annulus_radii.append(r[(r >= 0.6) & (r <= 5.0 / 3.0)])
        cap_radii.append(r[r <= 5.0 / 3.0])
    rs = np.concatenate(annulus_radii)
    c_annulus = float(annulus_profile(rs).min()) if rs.size else 0.0
    if not c_annulus > 0:
        raise ValueError("profile violates the annulus lower bound on the lattice")
    c_cap = float(cap_profile(np.concatenate(cap_radii)).min())
    if not c_cap > 0:
        raise ValueError("low-pass profile violates its lower bound on the lattice")
    return FilterBank(L, min(c_annulus, c_cap))


@dataclass(frozen=True)
class GridFunction:
    """Samples of a [0,1)**dim-periodic function on the uniform 2**L grid."""

    dim: int
    log_resolution: int
    samples: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError("the analyzer supports dim 1 and 2 only")
        N = 1 << self.log_resolution
        expected = (N,) * self.dim
        if self.samples.shape != expected:
            raise ValueError(f"samples shape {self.samples.shape} != {expected}")
        if not np.isfinite(self.samples).all():
            raise ValueError("samples must be finite: no NaN or infinite values")

    @property
    def is_complex(self) -> bool:
        return np.iscomplexobj(self.samples)

    def spectrum(self) -> np.ndarray:
        return np.fft.fftn(self.samples)

    # -- named families -----------------------------------------------------

    @classmethod
    def zeros(cls, dim: int, L: int) -> "GridFunction":
        return cls(dim, L, np.zeros(((1 << L),) * dim))

    @classmethod
    def harmonic(cls, dim: int, L: int, mode) -> "GridFunction":
        """cos(2 pi m . x) for an integer mode vector m."""
        grid = _grids(dim, L)
        mode = (mode,) * dim if isinstance(mode, int) and dim > 1 else mode
        mode = (mode,) if isinstance(mode, int) else tuple(mode)
        phase = sum(m * g for m, g in zip(mode, grid))
        return cls(dim, L, np.cos(2 * np.pi * phase))

    @classmethod
    def random_bandlimited(
        cls,
        dim: int,
        L: int,
        rng: np.random.Generator,
        n_modes: int = 20,
        j_hi: int | None = None,
    ) -> "GridFunction":
        """Sum of ``n_modes`` random cosines amp * cos(2 pi m . x + phase) with
        |m| in [1, 2**j_hi].

        Modes are drawn one at a time, a draw outside the ball being drawn
        again, then its amplitude and phase.  Each mode adds amp * e^(i phase)
        into bin m mod 2**L (per axis) of one spectrum, so one inverse FFT
        gives the sum on the grid; modes that alias to one bin add there.
        Raises ValueError for a negative ``n_modes``."""
        if n_modes < 0:
            raise ValueError(f"n_modes must be >= 0, got {n_modes}")
        if j_hi is None:
            j_hi = L - 3
        m_max = 1 << j_hi
        N = 1 << L
        spectrum = np.zeros((N,) * dim, dtype=complex)
        picked = 0
        while picked < n_modes:
            mode = tuple(int(v) for v in rng.integers(-m_max, m_max + 1, size=dim))
            radius = math.sqrt(sum(m * m for m in mode))
            if radius < 1 or radius > m_max:
                continue
            amp = float(rng.uniform(0.5, 1.5))
            phase = float(rng.uniform(0.0, 2 * np.pi))
            term = complex(amp * math.cos(phase), amp * math.sin(phase))
            spectrum[tuple(m % N for m in mode)] += term
            picked += 1
        return cls(dim, L, N**dim * np.fft.ifftn(spectrum).real)

    @classmethod
    def sawtooth_smoothed(cls, dim: int, L: int) -> "GridFunction":
        """Smoothly truncated sawtooth Fourier series (dim 1 only):
        sum of exp(-3 (m/M)**2) sin(2 pi m x) / m over m = 1..M = 2**(L-3),
        as the imaginary part of one inverse FFT of those coefficients."""
        if dim != 1:
            raise ValueError("the sawtooth family is one-dimensional")
        M = 1 << (L - 3)
        N = 1 << L
        spectrum = np.zeros(N, dtype=complex)
        spectrum[1 : M + 1] = [math.exp(-3.0 * (m / M) ** 2) / m for m in range(1, M + 1)]
        return cls(1, L, N * np.fft.ifft(spectrum).imag)


def _grids(dim: int, L: int) -> tuple[np.ndarray, ...]:
    N = 1 << L
    axis = np.arange(N, dtype=float) / N
    if dim == 1:
        return (axis,)
    return tuple(np.meshgrid(axis, axis, indexing="ij"))


@lru_cache(maxsize=None)
def _lattice_radii(dim: int, L: int, half: bool = False) -> np.ndarray:
    """|m| at each bin of the ``fftn`` spectrum, or with ``half`` of the
    ``rfftn`` half spectrum (last axis 0..N/2; the Nyquist bin at +N/2)."""
    N = 1 << L
    freqs = np.fft.fftfreq(N) * N
    last = np.fft.rfftfreq(N) * N if half else freqs
    if dim == 1:
        return np.abs(last)
    fx, fy = np.meshgrid(freqs, last, indexing="ij")
    return np.sqrt(fx * fx + fy * fy)


def _spectrum(f: GridFunction) -> np.ndarray:
    """The forward transform the band-passes read: ``rfftn`` of a real f (the
    half spectrum), ``fftn`` of a complex one."""
    return f.spectrum() if f.is_complex else np.fft.rfftn(f.samples)


def lp_convolve(
    f: GridFunction, bank: FilterBank, j: int, spectrum: np.ndarray | None = None
) -> GridFunction:
    """Band-pass f at level j by Fourier multiplication with annulus_profile(2**-j |m|).

    A real f is multiplied on its half spectrum and transformed back by one
    ``irfftn``, a complex f on its full spectrum by one ``ifftn``.
    ``spectrum`` is that forward transform of f (``rfftn`` or ``fftn``), for
    a caller that already holds it."""
    if j not in bank.valid_levels:
        raise ValueError(
            f"level {j} outside the bank's valid range {bank.valid_levels}"
        )
    if spectrum is None:
        spectrum = _spectrum(f)
    real = not f.is_complex
    radii = _lattice_radii(f.dim, f.log_resolution, real)
    banded = spectrum * annulus_profile(radii / float(1 << j))
    if real:
        out = np.fft.irfftn(banded, s=f.samples.shape, axes=tuple(range(f.dim)))
    else:
        out = np.fft.ifftn(banded)
    return GridFunction(f.dim, f.log_resolution, out)


def _check_max_level(bank: FilterBank, max_level: int) -> None:
    if max_level not in bank.valid_levels:
        raise ValueError(f"max_level {max_level} outside {bank.valid_levels}")


def band_magnitudes(
    f: GridFunction, bank: FilterBank, max_level: int, spectrum: np.ndarray | None = None
) -> list[np.ndarray]:
    """|lp_convolve(f, bank, j)| for j = 0..max_level, all from one forward
    transform (``spectrum``, as ``lp_convolve`` reads it, when the caller
    already holds it).

    Each level is one inverse transform, and only its float magnitude is kept
    before the next level starts: the peak holds the spectrum, one level's
    transforms and the magnitudes so far, not every signed band at once."""
    _check_max_level(bank, max_level)
    if spectrum is None:
        spectrum = _spectrum(f)
    return [
        np.abs(lp_convolve(f, bank, j, spectrum).samples) for j in range(max_level + 1)
    ]


def coefficients(
    f: GridFunction,
    bank: FilterBank,
    max_level: int,
    bands: list[np.ndarray] | None = None,
) -> CubeSequence:
    """Analysis coefficients indexed by dyadic cubes of level 0..max_level.

    The analyzing bump is real and radial, so the pairing with the cube-
    normalized filter is the band-passed sample at the cube's lower corner
    times |Q|**(1/2); the corner is always a grid point for j <= L.
    ``bands`` is ``band_magnitudes(f, bank, max_level)`` when the caller
    already holds it.
    """
    _check_max_level(bank, max_level)
    if bands is None:
        bands = band_magnitudes(f, bank, max_level)
    L = f.log_resolution
    dim = f.dim
    root = DyadicCube.unit(dim)
    indices: list[np.ndarray] = []
    log2_values: list[float] = []
    for j in range(0, max_level + 1):
        corners = bands[j][(slice(None, None, 1 << (L - j)),) * dim]
        mags = corners * 2.0 ** (-j * dim / 2.0)
        nonzero = mags > 0.0
        indices.append(np.argwhere(nonzero))
        log2_values += map(math.log2, mags[nonzero].tolist())
    log2t = np.array(log2_values)
    if not (log2t < INF).all():
        raise ValueError("non-finite coefficient magnitude")
    depth = np.repeat(np.arange(max_level + 1), [len(k) for k in indices])
    paths = morton_paths(root, np.concatenate(indices), depth)
    return CubeSequence._from_paths(root, max_level, paths, depth, log2t)


def _pool(arr: np.ndarray, k: int, reduce) -> np.ndarray:
    """``reduce`` over the samples of each dyadic cube of level k, the cubes
    in ``np.ndindex`` order.  Each cube's samples become one contiguous row in
    row-major order, so a sum adds the same terms in the same order as
    ``np.sum`` over the cube's block of ``arr``."""
    dim, b = arr.ndim, 1 << k
    blocks = arr.reshape((b, arr.shape[0] >> k) * dim)  # per axis: cube, offset
    order = (*range(0, 2 * dim, 2), *range(1, 2 * dim, 2))
    return reduce(blocks.transpose(order).reshape(b**dim, -1), axis=1)


# The scalar maps below use Python's libm ``**`` and ``math.log2``, which can
# differ in the last bit from numpy's vectorised power and log2; the norms
# are defined by the scalar ones.
def _pow(x: np.ndarray, e: float) -> np.ndarray:
    return np.fromiter(map(pow, x.tolist(), repeat(e)), float, x.size)


def _log2(x: np.ndarray) -> np.ndarray:
    """log2 of nonnegative values, -inf at zero.  An infinite or NaN value is
    a weighted band power past the float range (NaN: an underflowed weight
    times an overflowed power), and raises OverflowError."""
    if not np.isfinite(x).all():
        raise OverflowError("the function norm's weighted band powers overflow")
    out = np.full(x.size, NEG_INF)
    pos = x > 0.0
    out[pos] = np.fromiter(map(math.log2, x[pos].tolist()), float)
    return out


# an overflow or 0 * inf reaches every value it touches, where _log2 refuses it
@np.errstate(over="ignore", invalid="ignore")
def function_norm(
    f: GridFunction,
    bank: FilterBank,
    params: SpaceParams,
    max_level: int,
    bands: list[np.ndarray] | None = None,
) -> NormValue:
    """Riemann-sum evaluation of the Morrey-weighted function norms.

    Frequency levels are truncated at ``max_level``; candidate cubes run over
    every dyadic subcube of [0,1)**dim down to that level.  On the unit torus
    every candidate has level >= 0, so the homogeneous and inhomogeneous
    aggregation ranges coincide.  ``bands`` is ``band_magnitudes(f, bank,
    max_level)`` when the caller already holds it.

    Every cube of a level is evaluated at once, by pooling the samples into
    cubes (a dyadic pyramid).  F walks the frequency levels from finest to
    coarsest with one running sum (a maximum when q = inf) of the weighted
    band-passes, and pools its power at each cube level; B pools each
    band-pass's power at every cube level at or above its own.
    """
    _check_max_level(bank, max_level)
    if params.family not in (Family.F_TYPE, Family.B_TYPE):
        raise ParamError(f"function_norm supports F/B families, got {params.family}")
    s, tau, p, q = params.s, params.tau, params.p, params.q
    check_exponents(p, q, tau)
    if bands is None:
        bands = band_magnitudes(f, bank, max_level)
    L = f.log_resolution
    dim = f.dim
    h_n = (1.0 / (1 << L)) ** dim
    values = [None] * (max_level + 1)  # per cube level, cubes in np.ndindex order

    if params.family == Family.F_TYPE:
        # at q = inf the running value is a maximum, its power p
        combine, power = (np.maximum, p) if q == INF else (np.add, p / q)
        acc = None
        for k in range(max_level, -1, -1):
            if q == INF:
                term = (2.0 ** (k * s)) * bands[k]
            else:
                term = (2.0 ** (k * s * q)) * bands[k] ** q
            acc = term if acc is None else combine(acc, term)
            integrals = _pool(acc**power, k, np.sum) * h_n
            values[k] = tau * dim * k + _log2(integrals) / p
    else:
        per_level = [[] for _ in range(max_level + 1)]  # [k]: one array per j >= k
        for j in range(max_level + 1):
            powered = bands[j] if p == INF else bands[j] ** p
            for k in range(j + 1):
                if p == INF:
                    v = _pool(powered, k, np.max)
                else:
                    v = _pow(_pool(powered, k, np.sum) * h_n, 1.0 / p)
                per_level[k].append((2.0 ** (j * s)) * v)
        for k, arrays in enumerate(per_level):
            arr = np.stack(arrays, axis=1)
            if q == INF:
                agg = arr.max(axis=1)
            else:
                agg = _pow((arr**q).sum(axis=1), 1.0 / q)
            values[k] = _log2(2.0 ** (tau * dim * k) * agg)

    sizes = [1 << (k * dim) for k in range(max_level + 1)]
    starts = np.cumsum([0] + sizes)

    def cube_of(i: int) -> DyadicCube:
        k = int(np.searchsorted(starts, i, "right")) - 1
        index = np.unravel_index(i - starts[k], (1 << k,) * dim)
        return DyadicCube(dim, k, tuple(int(v) for v in index))

    best, cube = _argmax(
        np.concatenate(values), np.repeat(np.arange(max_level + 1), sizes), cube_of
    )
    return NormValue.from_log2(best, cube)


@dataclass(frozen=True)
class ConsistencyReport:
    """Function-side over sequence-side norm ratio for one sampled function;
    ``entries`` counts the coefficients the sequence side was computed from."""

    function_norm: NormValue
    sequence_norm: NormValue
    ratio: float | None
    band_limited: bool
    max_level: int
    entries: int = field(default=0, compare=False)

    def to_json_dict(self) -> dict:
        return {
            "function_norm_log2": self.function_norm.log2_value,
            "sequence_norm_log2": self.sequence_norm.log2_value,
            "ratio": self.ratio,
            "band_limited": self.band_limited,
            "max_level": self.max_level,
        }


def band_limit_fraction(
    f: GridFunction, max_level: int, spectrum: np.ndarray | None = None
) -> float:
    """Fraction of spectral energy beyond the top analysis band; ``spectrum``
    is f's forward transform as ``lp_convolve`` reads it, for a caller that
    already holds it.

    A real f's half spectrum holds the last axis's columns 0..N/2; columns
    1..N/2-1 stand for themselves and their mirrored conjugates, so their
    energy counts twice, and the DC and Nyquist columns once."""
    spec = np.abs(_spectrum(f) if spectrum is None else spectrum) ** 2
    real = not f.is_complex
    if real:
        spec[..., 1 : (1 << f.log_resolution) // 2] *= 2.0
    radii = _lattice_radii(f.dim, f.log_resolution, real)
    total = float(spec.sum())
    if total == 0.0:
        return 0.0
    outside = float(spec[radii > float(1 << (max_level + 1))].sum())
    return outside / total


def transform_consistency(
    f: GridFunction,
    bank: FilterBank,
    params: SpaceParams,
    max_level: int | None = None,
) -> ConsistencyReport:
    """Ratio of the function norm to the norm of its coefficient field.

    A fixed analyzing bump makes the two sides equivalent up to constants
    that depend only on the bump; across a band-limited test family the
    ratios land in a stable band.  Inputs with spectral energy beyond the top
    band are flagged (their truncation bias is unbounded).
    """
    if max_level is None:
        max_level = bank.valid_levels[-1]
    # one forward transform and one band-pass per level serve every stage
    spectrum = _spectrum(f)
    limited = band_limit_fraction(f, max_level, spectrum) < 1e-10
    bands = band_magnitudes(f, bank, max_level, spectrum)
    fn = function_norm(f, bank, params, max_level, bands)
    seq = coefficients(f, bank, max_level, bands)
    sn = norm(seq, params)
    if fn.is_zero or sn.is_zero:
        ratio = None
    else:
        ratio = 2.0 ** (fn.log2_value - sn.log2_value)
    return ConsistencyReport(fn, sn, ratio, limited, max_level, len(seq))


# ---------------------------------------------------------------------------
# raw I/O
# ---------------------------------------------------------------------------


def save_grid_function(f: GridFunction, base: str | Path) -> None:
    """Raw little-endian float64 payload plus a JSON sidecar."""
    base = Path(base)
    data = f.samples.astype(np.complex128 if f.is_complex else np.float64)
    base.write_bytes(data.astype("<c16" if f.is_complex else "<f8").tobytes())
    sidecar = {"dim": f.dim, "L": f.log_resolution, "complex": bool(f.is_complex)}
    base.with_suffix(base.suffix + ".json").write_text(
        json.dumps(sidecar, sort_keys=True) + "\n", encoding="utf-8"
    )


def load_grid_function(base: str | Path) -> GridFunction:
    base = Path(base)
    sidecar = json.loads(base.with_suffix(base.suffix + ".json").read_text())
    dim, L = int(sidecar["dim"]), int(sidecar["L"])
    dtype = "<c16" if sidecar["complex"] else "<f8"
    arr = np.frombuffer(base.read_bytes(), dtype=dtype).reshape(((1 << L),) * dim)
    return GridFunction(dim, L, arr.copy())
