"""Frequency-domain output-only identification: peak picking and FDD.

Peak picking (PP) works on the averaged normalized power spectral density
(ANPSD) and extracts shapes from cross-spectra against a reference channel.
Frequency-domain decomposition (FDD) tracks the first singular value of the
cross-spectral density matrix and takes the corresponding singular vector at
each peak.  Both take the record's CSD matrix, so one estimate serves both,
and report an :class:`IdentifiedModeSet` whose modes ascend in frequency and
lie more than one grid line apart, as :func:`pick_peaks` leaves them.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

from .dsp import (IdentificationError, MultiChannelRecord, SpectralEstimatorOptions,
                  SpectralMatrix, fmt, psd, write_csv)

__all__ = [
    "PeakOptions",
    "Peak",
    "AnpsdCurve",
    "IdentifiedMode",
    "IdentifiedModeSet",
    "anpsd",
    "anpsd_from_densities",
    "pick_peaks",
    "pp_identify",
    "fdd_identify",
    "pp_shape_at",
    "fdd_shape_at",
    "write_curve_csv",
]


@dataclass(frozen=True)
class PeakOptions:
    """Automated peak selection settings.

    ``prominence_db`` is the minimum height of a local maximum over the
    band median, in dB of power; ``min_separation_hz`` keeps only the
    strongest candidate within any window of that width; ``band`` restricts
    the search.

    The default prominence is the Monte Carlo campaign's, tuned for
    averaged spectra: with the default nine-segment averaging the noise
    floor is smooth, so 4.5 dB keeps every physical peak that survives the
    noise while rejecting floor wiggle; 6 dB would drop real peaks whose
    prominence is eroded by heavy noise.
    """

    prominence_db: float = 4.5
    min_separation_hz: float = 2.0
    band: tuple[float, float] = (0.5, 1200.0)

    def __post_init__(self):
        if self.prominence_db < 0:
            raise ValueError("prominence_db must be >= 0")
        if self.min_separation_hz < 0:
            raise ValueError("min_separation_hz must be >= 0")
        lo, hi = self.band
        if not (0.0 <= lo < hi):
            raise ValueError("band must satisfy 0 <= lo < hi")


@dataclass(frozen=True)
class Peak:
    """One selected spectral peak: refined frequency and grid bin."""

    frequency: float
    bin_index: int


@dataclass(frozen=True)
class AnpsdCurve:
    """Averaged normalized PSD; integrates to 1 against the grid."""

    frequencies: np.ndarray
    values: np.ndarray
    excluded_channels: tuple[int, ...] = ()


@dataclass(frozen=True)
class IdentifiedMode:
    """One identified mode: frequency [Hz], real unit-normalized shape."""

    frequency: float
    shape: np.ndarray
    damping: float | None = None


@dataclass(frozen=True)
class IdentifiedModeSet:
    """Result of one identification pass, modes ascending in frequency.

    ``shape_at(frequencies, rel_window)`` lists the method's shape estimate
    near each of a sequence of frequencies from the same pass, or ``None``.
    """

    modes: tuple[IdentifiedMode, ...]
    shape_at: Callable[[Sequence[float], float], list[np.ndarray | None]] = field(
        compare=False, repr=False)
    notes: tuple[str, ...] = ()

    @property
    def frequencies(self) -> np.ndarray:
        return np.array([m.frequency for m in self.modes])

    @property
    def shapes(self) -> list[np.ndarray]:
        return [m.shape for m in self.modes]


def unit_normalize(shape: np.ndarray) -> np.ndarray:
    """Scale a real shape so its largest-magnitude entry equals +1.

    Acts along the last axis, so a stack of shapes is normalized row by row.
    """
    v = np.asarray(shape, dtype=float)
    pivot = np.take_along_axis(v, np.argmax(np.abs(v), axis=-1)[..., None], axis=-1)
    if np.any(pivot == 0.0):
        raise IdentificationError("cannot normalize a zero shape")
    return v / pivot


def align_to_real(u: np.ndarray) -> np.ndarray:
    """Rotate a complex vector to its dominant-real alignment, return real part.

    The rotation angle maximizes the norm of the real part; the result keeps
    the relative signs of the entries of a proportionally damped mode.  A
    vector whose rotated real part vanishes gives its magnitudes instead.
    Acts along the last axis, so a stack of vectors is aligned row by row.
    """
    u = np.asarray(u, dtype=complex)
    z = np.sum(u * u, axis=-1, keepdims=True)
    alpha = 0.5 * np.angle(np.where(z != 0, z, 1.0))
    v = np.real(u * np.exp(-1j * alpha))
    return np.where(np.max(np.abs(v), axis=-1, keepdims=True) == 0.0, np.abs(u), v)


def anpsd_from_densities(frequencies, densities) -> AnpsdCurve:
    """Average the per-channel PSDs after normalizing each by its power.

    Channels with zero integrated power are excluded and flagged; the result
    integrates to one against the frequency grid.
    """
    f = np.asarray(frequencies, dtype=float)
    p = np.atleast_2d(np.asarray(densities, dtype=float))
    if p.shape[1] != f.size:
        raise ValueError("densities shape does not match the frequency grid")
    df = f[1] - f[0]
    power = p.sum(axis=1) * df
    keep = power > 0.0
    if not np.any(keep):
        raise IdentificationError("all channels have zero power")
    norm = p[keep] / power[keep, None]
    curve = norm.mean(axis=0)
    excluded = tuple(int(i) for i in np.nonzero(~keep)[0])
    return AnpsdCurve(f, curve, excluded)


def anpsd(record: MultiChannelRecord,
          options: SpectralEstimatorOptions = SpectralEstimatorOptions()) -> AnpsdCurve:
    """ANPSD of a record (PSD per channel, normalize, average)."""
    f, p = psd(record, options)
    return anpsd_from_densities(f, p)


def pick_peaks(frequencies, values, options: PeakOptions = PeakOptions()) -> list[Peak]:
    """Select spectral peaks inside the search band.

    Local maxima must exceed the band median by ``prominence_db`` (power dB);
    when several fall within ``min_separation_hz`` only the highest is kept.
    Each surviving peak is refined by 3-point parabolic interpolation, which
    moves it at most half a bin up and less than half a bin down.  Local
    maxima are never adjacent bins, so the returned peaks ascend in
    frequency more than one bin apart.
    """
    f = np.asarray(frequencies, dtype=float)
    v = np.asarray(values, dtype=float)
    if f.size != v.size:
        raise ValueError("frequency and value arrays must match")
    lo, hi = options.band
    sel = np.nonzero((f >= lo) & (f <= hi))[0]
    if sel.size < 3:
        return []
    med = np.median(v[sel])
    floor = med * 10.0 ** (options.prominence_db / 10.0)
    inner = sel[(sel > 0) & (sel < f.size - 1)]
    is_max = (v[inner] > v[inner - 1]) & (v[inner] >= v[inner + 1]) & (v[inner] >= floor)
    candidates = inner[is_max]
    # Strongest-first thinning at the minimum separation: each kept peak
    # rules out every candidate closer to it than min_separation_hz.
    order = candidates[np.argsort(v[candidates])[::-1]]
    fo = f[order]
    free = np.ones(order.size, dtype=bool)
    kept: list[int] = []
    while free.any():
        i = int(np.argmax(free))
        kept.append(int(order[i]))
        free &= np.abs(fo - fo[i]) >= options.min_separation_hz
        free[i] = False  # a zero separation rules nothing out
    peaks = []
    df = f[1] - f[0]
    for idx in sorted(kept):
        y0, y1, y2 = v[idx - 1], v[idx], v[idx + 1]
        den = y0 - 2.0 * y1 + y2
        delta = 0.5 * (y0 - y2) / den if den != 0 else 0.0
        delta = float(np.clip(delta, -0.5, 0.5))
        peaks.append(Peak(float(f[idx] + delta * df), idx))
    return peaks


def _lines_nearest(spectral: SpectralMatrix, frequencies) -> np.ndarray:
    """Cross-spectra at the grid line nearest each of ``frequencies``, one
    line per frequency in a ``(n, l, l)`` stack; a line past the stored ones
    raises as :meth:`SpectralMatrix.lines` does."""
    f, x = spectral.frequencies, np.ravel(frequencies)
    # The grid ascends, so the nearest line is the last one below x or the
    # first at or above it; a tie goes to the lower, as argmin's would.
    above = np.searchsorted(f, x)
    lower, upper = np.maximum(above - 1, 0), np.minimum(above, f.size - 1)
    bins = np.where(np.abs(f[lower] - x) <= np.abs(f[upper] - x), lower, upper)
    return spectral.lines(0, int(bins.max(initial=0)) + 1)[bins]


def _band_power_reference(spectral: SpectralMatrix, band: tuple[float, float]) -> int:
    """Index of the channel with the largest total power inside the band."""
    f = spectral.frequencies
    sel = (f >= band[0]) & (f <= band[1])
    power = spectral.auto_spectra[:, sel].sum(axis=1)
    return int(np.argmax(power))


def pp_shape_at(spectral: SpectralMatrix, reference_channel: int, frequencies) -> list:
    """Peak-picking shapes at the grid line nearest each of ``frequencies``.

    Entry ``j`` of a shape is ``|G_jr| / G_rr`` signed by the cross-spectrum
    phase (positive when within a quarter turn of the reference); a line
    where the reference auto-spectrum vanishes gives ``None``.  Returns one
    entry per frequency, read in one array pass.
    """
    g = _lines_nearest(spectral, frequencies)
    grr = g[:, reference_channel, reference_channel].real
    live = grr > 0.0
    col = g[live, :, reference_channel]
    mag = np.abs(col) / grr[live, None]
    sign = np.where(np.abs(np.angle(col)) < np.pi / 2.0, 1.0, -1.0)
    shapes = iter(unit_normalize(mag * sign))
    return [next(shapes) if ok else None for ok in live]


def pp_identify(g: SpectralMatrix, peaks: PeakOptions = PeakOptions(),
                reference_channel: int | None = None) -> IdentifiedModeSet:
    """Peak-picking identification on the ANPSD of a CSD matrix.

    Parameters
    ----------
    g : SpectralMatrix
        CSD matrix of the record (:func:`omabench.dsp.csd_matrix`).
    peaks
        Peak selection settings.
    reference_channel : int, optional
        Channel index for shape extraction; defaults to the channel with the
        largest total power inside the search band.
    """
    curve = anpsd_from_densities(g.frequencies, g.auto_spectra)
    found = pick_peaks(curve.frequencies, curve.values, peaks)
    ref = reference_channel if reference_channel is not None \
        else _band_power_reference(g, peaks.band)
    if not (0 <= ref < g.n_channels):
        raise ValueError("reference channel out of range")
    notes = [f"reference_channel={ref}"]
    if curve.excluded_channels:
        notes.append(f"zero_power_channels={list(curve.excluded_channels)}")
    modes = []
    shapes = pp_shape_at(g, ref, [curve.frequencies[pk.bin_index] for pk in found])
    for pk, shape in zip(found, shapes):
        if shape is None:
            notes.append(f"dropped_peak_at={pk.frequency:.3f}Hz (zero reference auto-spectrum)")
            continue
        modes.append(IdentifiedMode(pk.frequency, shape))
    return IdentifiedModeSet(tuple(modes), lambda fs, _window: pp_shape_at(g, ref, fs),
                             tuple(notes))


def _first_singular_values(values: np.ndarray) -> np.ndarray:
    """First singular value of each Hermitian CSD line of ``values``."""
    return np.maximum(np.linalg.eigvalsh(values)[:, -1], 0.0)


def fdd_shape_at(spectral: SpectralMatrix, frequencies) -> list:
    """First singular vector at the grid line nearest each of ``frequencies``,
    made real: one shape per frequency, from one stacked ``eigh``."""
    _, vecs = np.linalg.eigh(_lines_nearest(spectral, frequencies))
    return list(unit_normalize(align_to_real(vecs[..., -1])))


def fdd_identify(g: SpectralMatrix, peaks: PeakOptions = PeakOptions()) -> IdentifiedModeSet:
    """Frequency-domain decomposition of a CSD matrix.

    The CSD matrix is decomposed line by line over the search band; peaks
    of the first singular value are the candidate modes and the
    corresponding singular vectors, rotated to their dominant-real
    alignment, are the shapes.
    """
    # pick_peaks reads the search band and one line on each side of it only.
    freqs = g.frequencies
    sel = np.nonzero((freqs >= peaks.band[0]) & (freqs <= peaks.band[1]))[0]
    s1 = np.zeros(freqs.size)
    if sel.size:
        lo, hi = max(sel[0] - 1, 0), sel[-1] + 2
        s1[lo:hi] = _first_singular_values(g.lines(lo, hi))
    found = pick_peaks(freqs, s1, peaks)
    shapes = fdd_shape_at(g, [freqs[pk.bin_index] for pk in found])
    modes = tuple(IdentifiedMode(pk.frequency, shape) for pk, shape in zip(found, shapes))
    return IdentifiedModeSet(modes, shape_at=lambda fs, _window: fdd_shape_at(g, fs))


def write_curve_csv(path, frequencies, values) -> None:
    """Write a ``frequency_hz,value`` curve CSV (full-precision doubles)."""
    f = np.asarray(frequencies, dtype=float)
    v = np.asarray(values, dtype=float)
    if f.size != v.size:
        raise ValueError("frequency and value arrays must match")
    write_csv(path, ["frequency_hz", "value"],
              ([fmt(a), fmt(b)] for a, b in zip(f.tolist(), v.tolist())))
