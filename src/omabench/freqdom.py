"""Frequency-domain output-only identification: peak picking and FDD.

Peak picking (PP) works on the averaged normalized power spectral density
(ANPSD) and extracts shapes from cross-spectra against a reference channel.
Frequency-domain decomposition (FDD) tracks the first singular value of the
cross-spectral density matrix and takes the corresponding singular vector at
each peak.  Both report an :class:`IdentifiedModeSet`.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .dsp import (MultiChannelRecord, SpectralEstimatorOptions, SpectralMatrix,
                  csd_matrix)

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
    "singular_value_curve",
    "write_curve_csv",
]


@dataclass(frozen=True)
class PeakOptions:
    """Automated peak selection settings.

    ``prominence_db`` is the minimum height of a local maximum over the
    band median, in dB of power; ``min_separation_hz`` keeps only the
    strongest candidate within any window of that width; ``band`` restricts
    the search.
    """

    prominence_db: float = 6.0
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
    """One selected spectral peak: refined frequency, grid bin, bin height."""

    frequency: float
    bin_index: int
    height: float


@dataclass(frozen=True)
class AnpsdCurve:
    """Averaged normalized PSD; integrates to 1 against the grid."""

    frequencies: np.ndarray
    values: np.ndarray
    df: float
    excluded_channels: tuple[int, ...] = ()


@dataclass(frozen=True)
class IdentifiedMode:
    """One identified mode: frequency [Hz], real unit-normalized shape."""

    frequency: float
    shape: np.ndarray
    damping: float | None = None
    quality: dict = field(default_factory=dict)


@dataclass(frozen=True)
class IdentifiedModeSet:
    """Result of one identification pass, modes ascending in frequency.

    ``shape_at(frequency, rel_window)`` is the method's shape estimate near
    a frequency from the same pass, or ``None``.
    """

    method: str
    modes: tuple[IdentifiedMode, ...]
    notes: tuple[str, ...] = ()
    shape_at: Callable[[float, float], np.ndarray | None] | None = field(
        default=None, compare=False, repr=False)

    @property
    def frequencies(self) -> np.ndarray:
        return np.array([m.frequency for m in self.modes])

    @property
    def shapes(self) -> list[np.ndarray]:
        return [m.shape for m in self.modes]


def _build_mode_set(method: str, modes: list[IdentifiedMode], grid_df: float,
                    notes: list[str], shape_at) -> IdentifiedModeSet:
    """Sort ascending and drop duplicates closer than the grid spacing."""
    modes = sorted(modes, key=lambda m: m.frequency)
    kept: list[IdentifiedMode] = []
    for m in modes:
        if kept and m.frequency - kept[-1].frequency < grid_df:
            strength = m.quality.get("height", 0.0)
            if strength > kept[-1].quality.get("height", 0.0):
                kept[-1] = m
            continue
        kept.append(m)
    return IdentifiedModeSet(method, tuple(kept), tuple(notes), shape_at)


def unit_normalize(shape: np.ndarray) -> np.ndarray:
    """Scale a real shape so its largest-magnitude entry equals +1."""
    v = np.asarray(shape, dtype=float)
    pivot = v[np.argmax(np.abs(v))]
    if pivot == 0.0:
        raise ValueError("cannot normalize a zero shape")
    return v / pivot


def align_to_real(u: np.ndarray) -> np.ndarray:
    """Rotate a complex vector to its dominant-real alignment, return real part.

    The rotation angle maximizes the norm of the real part; the result keeps
    the relative signs of the entries of a proportionally damped mode.
    """
    u = np.asarray(u, dtype=complex)
    z = np.sum(u * u)
    alpha = 0.5 * np.angle(z) if z != 0 else 0.0
    v = np.real(u * np.exp(-1j * alpha))
    if np.max(np.abs(v)) == 0.0:
        v = np.abs(u)
    return v


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
        raise ValueError("all channels have zero power")
    norm = p[keep] / power[keep, None]
    curve = norm.mean(axis=0)
    excluded = tuple(int(i) for i in np.nonzero(~keep)[0])
    return AnpsdCurve(f, curve, float(df), excluded)


def anpsd(record: MultiChannelRecord,
          options: SpectralEstimatorOptions = SpectralEstimatorOptions()) -> AnpsdCurve:
    """ANPSD of a record (PSD per channel, normalize, average)."""
    from .dsp import psd
    f, p = psd(record, options)
    return anpsd_from_densities(f, p)


def pick_peaks(frequencies, values, options: PeakOptions = PeakOptions()) -> list[Peak]:
    """Select spectral peaks inside the search band.

    Local maxima must exceed the band median by ``prominence_db`` (power dB);
    when several fall within ``min_separation_hz`` only the highest is kept.
    Each surviving peak is refined by 3-point parabolic interpolation, which
    moves it at most half a bin.  Returns peaks sorted by frequency.
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
    # Strongest-first thinning at the minimum separation.
    order = candidates[np.argsort(v[candidates])[::-1]]
    kept: list[int] = []
    for idx in order:
        if all(abs(f[idx] - f[j]) >= options.min_separation_hz for j in kept):
            kept.append(int(idx))
    peaks = []
    df = f[1] - f[0]
    for idx in sorted(kept):
        y0, y1, y2 = v[idx - 1], v[idx], v[idx + 1]
        den = y0 - 2.0 * y1 + y2
        delta = 0.5 * (y0 - y2) / den if den != 0 else 0.0
        delta = float(np.clip(delta, -0.5, 0.5))
        peaks.append(Peak(float(f[idx] + delta * df), idx, float(y1)))
    return peaks


def _nearest_bin(frequencies: np.ndarray, f: float) -> int:
    return int(np.argmin(np.abs(frequencies - f)))


def _band_power_reference(spectral: SpectralMatrix, band: tuple[float, float]) -> int:
    """Index of the channel with the largest total power inside the band."""
    f = spectral.frequencies
    sel = (f >= band[0]) & (f <= band[1])
    diag = spectral.diagonal()
    power = diag[:, sel].sum(axis=1)
    return int(np.argmax(power))


def pp_shape_at(spectral: SpectralMatrix, reference_channel: int,
                frequency: float) -> np.ndarray | None:
    """Peak-picking shape at the grid bin nearest ``frequency``.

    Entry ``j`` is ``|G_jr| / G_rr`` signed by the cross-spectrum phase
    (positive when within a quarter turn of the reference).  Returns ``None``
    when the reference auto-spectrum vanishes at that bin.
    """
    b = _nearest_bin(spectral.frequencies, frequency)
    g = spectral.values[b]
    grr = g[reference_channel, reference_channel].real
    if grr <= 0.0:
        return None
    col = g[:, reference_channel]
    mag = np.abs(col) / grr
    sign = np.where(np.abs(np.angle(col)) < np.pi / 2.0, 1.0, -1.0)
    return unit_normalize(mag * sign)


def pp_identify(record: MultiChannelRecord,
                estimator: SpectralEstimatorOptions = SpectralEstimatorOptions(),
                peaks: PeakOptions = PeakOptions(),
                reference_channel: int | None = None,
                spectral: SpectralMatrix | None = None) -> IdentifiedModeSet:
    """Peak-picking identification on the ANPSD of a record.

    Parameters
    ----------
    record : MultiChannelRecord
    estimator, peaks
        Spectral estimation and peak selection settings.
    reference_channel : int, optional
        Channel index for shape extraction; defaults to the channel with the
        largest total power inside the search band.
    spectral : SpectralMatrix, optional
        Precomputed CSD matrix of ``record`` under ``estimator`` (reused when
        several identifiers run on the same record).
    """
    g = spectral if spectral is not None else csd_matrix(record, estimator)
    curve = anpsd_from_densities(g.frequencies, g.diagonal())
    found = pick_peaks(curve.frequencies, curve.values, peaks)
    ref = reference_channel if reference_channel is not None \
        else _band_power_reference(g, peaks.band)
    if not (0 <= ref < g.n_channels):
        raise ValueError("reference channel out of range")
    notes = [f"reference_channel={ref}"]
    if curve.excluded_channels:
        notes.append(f"zero_power_channels={list(curve.excluded_channels)}")
    modes = []
    for pk in found:
        shape = pp_shape_at(g, ref, curve.frequencies[pk.bin_index])
        if shape is None:
            notes.append(f"dropped_peak_at={pk.frequency:.3f}Hz (zero reference auto-spectrum)")
            continue
        modes.append(IdentifiedMode(pk.frequency, shape, None,
                                    {"height": pk.height}))
    return _build_mode_set("PP", modes, curve.df, notes,
                           lambda f, _window: pp_shape_at(g, ref, f))


def singular_value_curve(spectral: SpectralMatrix) -> tuple[np.ndarray, np.ndarray]:
    """First singular value of the CSD matrix at every frequency line."""
    vals = np.linalg.eigvalsh(spectral.values)
    s1 = np.maximum(vals[:, -1], 0.0)
    return spectral.frequencies, s1


def fdd_shape_at(spectral: SpectralMatrix, frequency: float) -> np.ndarray:
    """First singular vector at the bin nearest ``frequency``, made real."""
    b = _nearest_bin(spectral.frequencies, frequency)
    vals, vecs = np.linalg.eigh(spectral.values[b])
    u1 = vecs[:, -1]
    return unit_normalize(align_to_real(u1))


def fdd_identify(record: MultiChannelRecord,
                 estimator: SpectralEstimatorOptions = SpectralEstimatorOptions(),
                 peaks: PeakOptions = PeakOptions(),
                 spectral: SpectralMatrix | None = None) -> IdentifiedModeSet:
    """Frequency-domain decomposition of a record.

    The CSD matrix is decomposed line by line; peaks of the first singular
    value are the candidate modes and the corresponding singular vectors,
    rotated to their dominant-real alignment, are the shapes.  The ratio of
    the second to the first singular value at each peak is kept as a
    rank-one quality indicator.
    """
    g = spectral if spectral is not None else csd_matrix(record, estimator)
    freqs, s1 = singular_value_curve(g)
    found = pick_peaks(freqs, s1, peaks)
    modes = []
    for pk in found:
        vals, vecs = np.linalg.eigh(g.values[pk.bin_index])
        u1 = vecs[:, -1]
        lead = max(float(vals[-1]), 0.0)
        second = max(float(vals[-2]), 0.0) if vals.size > 1 else 0.0
        ratio = second / lead if lead > 0 else 1.0
        shape = unit_normalize(align_to_real(u1))
        modes.append(IdentifiedMode(pk.frequency, shape, None,
                                    {"height": pk.height, "sv_ratio": ratio}))
    return _build_mode_set("FDD", modes, float(g.df), [],
                           lambda f, _window: fdd_shape_at(g, f))


def write_curve_csv(path, frequencies, values) -> None:
    """Write a ``frequency_hz,value`` curve CSV (full-precision doubles)."""
    f = np.asarray(frequencies, dtype=float)
    v = np.asarray(values, dtype=float)
    if f.size != v.size:
        raise ValueError("frequency and value arrays must match")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("frequency_hz,value\n")
        for i in range(f.size):
            fh.write(f"{float(f[i])!r},{float(v[i])!r}\n")
