"""Multi-channel records, excitation synthesis and spectral estimation.

Everything downstream of the simulator works on :class:`MultiChannelRecord`
objects: immutable blocks of equally sampled channel data.  This module also
owns the deterministic seed derivation used across the workbench, the
band-limited excitation generator and the PSD/CSD estimators that feed the
frequency-domain identifiers.
"""

from __future__ import annotations

import hashlib
import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "MultiChannelRecord",
    "SpectralEstimatorOptions",
    "SpectralMatrix",
    "IdentificationError",
    "derive_seed",
    "gaussian_white",
    "force_lines",
    "MAX_SAMPLES",
    "band_limited_force",
    "psd",
    "csd_matrix",
    "fmt",
    "write_csv",
]

_WINDOWS = ("rectangular", "hann")

# Bound on a synthesized record's steps: 800 MB per float64 channel.
MAX_SAMPLES = 10 ** 8


class IdentificationError(ValueError):
    """A record an identifier cannot read: too short for its estimator,
    without power or shape, or with spectra too large to square.
    :func:`omabench.harness.identify_record` files it as that method's
    failure; any other error is the caller's."""


def derive_seed(*parts) -> int:
    """Derive a stable 64-bit child seed from an arbitrary tuple of parts.

    The derivation hashes the decimal/string form of every part, so it is
    independent of platform, process and interpreter hash randomization.
    Distinct part tuples give independent streams for all practical purposes.

    Parameters
    ----------
    *parts
        Integers or strings identifying the stream, e.g.
        ``(master_seed, "noise", beam_id, level_index, run_index)``.

    Returns
    -------
    int
        Seed in ``[0, 2**64)`` suitable for :func:`numpy.random.default_rng`.
    """
    if not parts:
        raise ValueError("derive_seed requires at least one part")
    token = "\x1f".join(str(p) for p in parts).encode("utf-8")
    digest = hashlib.sha256(token).digest()
    return int.from_bytes(digest[:8], "little")


def fmt(x) -> str:
    """CSV cell: the shortest round-trip decimal of ``float(x)``; ``-`` for None."""
    return "-" if x is None else repr(float(x))


def write_csv(path, header: list[str], rows) -> None:
    """Write the header and then every row, cells joined by commas.

    ``rows`` is consumed lazily, so a generator streams to the file.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(cells) + "\n" for cells in rows)


def gaussian_white(n_samples: int, seed: int) -> np.ndarray:
    """Draw ``n_samples`` of a standard normal stream for the given seed."""
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n_samples)


@dataclass(frozen=True)
class MultiChannelRecord:
    """Immutable block of equally sampled multi-channel data.

    Parameters
    ----------
    sample_rate : float
        Sampling rate in Hz.
    data : ndarray
        Channel data with shape ``(n_channels, n_samples)``.  The array is
        copied and marked read-only so records can be shared across workers.
    labels : tuple of str
        One label per channel (node ids for simulated beam records).
    """

    sample_rate: float
    data: np.ndarray
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        arr = np.array(self.data, dtype=float, order="C")
        if arr.ndim == 1:
            arr = arr[None, :]
        if arr.ndim != 2 or arr.shape[1] < 2:
            raise ValueError("data must be (n_channels, n_samples) with at least 2 samples")
        if not np.all(np.isfinite(arr)):
            raise ValueError("data must be finite")
        labels = tuple(self.labels) if self.labels else tuple(f"ch{i}" for i in range(arr.shape[0]))
        if len(labels) != arr.shape[0]:
            raise ValueError("label count does not match channel count")
        if len(set(labels)) != len(labels):
            raise ValueError("channel labels must be unique")
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)
        object.__setattr__(self, "labels", labels)

    @property
    def n_channels(self) -> int:
        return self.data.shape[0]

    @property
    def n_samples(self) -> int:
        return self.data.shape[1]

    @property
    def duration(self) -> float:
        """Record duration in seconds, ``(n_samples - 1) / sample_rate``."""
        return (self.n_samples - 1) / self.sample_rate

    def times(self) -> np.ndarray:
        return np.arange(self.n_samples) / self.sample_rate

    def to_csv(self, path) -> None:
        """Write ``time,<label>...`` CSV with full-precision doubles."""
        write_csv(path, ["time", *self.labels],
                  ([fmt(t), *map(fmt, row)]
                   for t, row in zip(self.times().tolist(), self.data.T.tolist())))

    @classmethod
    def from_csv(cls, path) -> "MultiChannelRecord":
        """Read a record written by :meth:`to_csv` (lossless for the data).

        The time column must increase on a uniform grid: a step that departs
        from the mean step by more than 1% of it raises ``ValueError``.
        """
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().strip()
            cells = header.split(",")
            if len(cells) < 2 or cells[0] != "time":
                raise ValueError("record CSV must start with a 'time,<label>...' header")
            labels = tuple(cells[1:])
            raw = np.loadtxt(fh, delimiter=",", ndmin=2)
        if raw.shape[1] != len(labels) + 1:
            raise ValueError("record CSV column count does not match header")
        t = raw[:, 0]
        if t.size < 2:
            raise ValueError("record CSV must hold at least 2 samples")
        if t[-1] <= t[0]:
            raise ValueError("record CSV time column must increase")
        step = (t[-1] - t[0]) / (t.size - 1)
        if np.any(np.abs(np.diff(t) - step) > 0.01 * step):
            raise ValueError("record CSV time steps must be uniform "
                             "(within 1% of the mean step)")
        rate = (t.size - 1) / (t[-1] - t[0])
        # Integral sampling rates are recovered exactly.
        if abs(rate - round(rate)) < 1e-6 * rate:
            rate = float(round(rate))
        return cls(rate, raw[:, 1:].T, labels)

    def to_npz(self, path) -> None:
        np.savez(path, sample_rate=self.sample_rate, data=self.data,
                 labels=np.array(self.labels))

    @classmethod
    def from_npz(cls, path) -> "MultiChannelRecord":
        with np.load(path) as z:
            missing = {"sample_rate", "data", "labels"}.difference(z.files)
            if missing:
                raise ValueError(f"record npz has no {', '.join(sorted(missing))} array")
            return cls(float(z["sample_rate"]), z["data"],
                       tuple(str(s) for s in z["labels"]))


def force_lines(duration: float, sample_rate: float, force_band: tuple[float, float],
                force_rms: float) -> tuple[int, np.ndarray]:
    """Check excitation settings; return the sample count and in-band lines.

    The one check of :func:`band_limited_force`'s settings, also run when a
    beam config is built.  Returns ``n = round(duration * sample_rate) + 1``,
    the one sample-count rule (the simulator runs on the force record's
    grid), and the boolean mask of the ``rfft`` lines of an ``n``-sample record
    that lie inside ``force_band``; the DC line is never in it.
    ``duration * sample_rate`` must stay below :data:`MAX_SAMPLES` (10**8
    steps, 2.8 hours at 10 kHz); that is checked before anything is
    allocated.
    """
    for name, value in (("duration", duration), ("sample_rate", sample_rate)):
        if not 0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite")
    if not duration * sample_rate < MAX_SAMPLES:
        raise ValueError(f"duration * sample_rate must be below {MAX_SAMPLES} samples "
                         f"(got {duration * sample_rate:.3g})")
    if len(force_band) != 2:
        raise ValueError("force_band must be a pair [lo, hi]")
    lo, hi = force_band
    if not (0.0 <= lo < hi <= sample_rate / 2):
        raise ValueError(f"force_band must satisfy 0 <= lo < hi <= Nyquist "
                         f"({sample_rate / 2:g} Hz)")
    if force_rms <= 0:
        raise ValueError("force_rms must be positive")
    n = int(round(duration * sample_rate)) + 1
    freqs = np.fft.rfftfreq(n, 1.0 / sample_rate)
    mask = (freqs >= lo) & (freqs <= hi) & (freqs > 0.0)
    if not np.any(mask):
        raise ValueError("force_band contains no spectral line for this duration")
    return n, mask


def band_limited_force(duration: float, sample_rate: float, force_band: tuple[float, float],
                       force_rms: float, seeds: Sequence[int]) -> np.ndarray:
    """Synthesize band-limited random-phase force histories, one per seed.

    Each row is built in the frequency domain with unit-magnitude spectral
    lines inside ``force_band`` and uniformly random phases drawn from that
    row's seed, inverted to the time domain and scaled to the exact target
    RMS.  Out-of-band content and the DC line are zero by construction, so
    every row has zero mean.  All rows go through one inverse FFT; each row
    is bit-identical to a call with its seed alone.

    Parameters
    ----------
    duration : float
        Length in seconds; the output has ``round(duration * sample_rate) + 1``
        samples.
    sample_rate : float
        Sampling rate in Hz.
    force_band : (float, float)
        Inclusive passband edges in Hz; must satisfy
        ``0 <= lo < hi <= sample_rate / 2``.
    force_rms : float
        RMS value of each returned row (must be positive).
    seeds : sequence of int
        One phase-stream seed per row.

    Returns
    -------
    ndarray
        Force samples, shape ``(len(seeds), n_samples)``.
    """
    n, mask = force_lines(duration, sample_rate, force_band, force_rms)
    spectra = np.zeros((len(seeds), mask.size), dtype=complex)
    for row, seed in zip(spectra, seeds):
        phases = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, int(mask.sum()))
        row[mask] = np.exp(1j * phases)
    x = np.fft.irfft(spectra, n, axis=-1)
    del spectra
    for row in x:
        row *= force_rms / np.sqrt(np.mean(row * row))
    return x


@dataclass(frozen=True)
class SpectralEstimatorOptions:
    """Settings for the Welch-type PSD/CSD estimators.

    The default is the Monte Carlo campaign's: nine half-overlapped Hann
    segments.  A single full-record segment keeps the finest frequency grid,
    ``1 / duration``, but its noise cross-spectra never average down, which
    wrecks shape estimates at the harshest noise levels.  Nine segments of a
    5 s record still resolve well-separated beam modes while cutting the
    estimator variance enough for stable peak and shape extraction at 0 dB.
    ``SpectralEstimatorOptions("rectangular", 1, 0.0)`` is the raw
    single-segment estimate.
    """

    window: str = "hann"
    segments: int = 9
    overlap: float = 0.5

    def __post_init__(self):
        if self.window not in _WINDOWS:
            raise ValueError(f"window must be one of {_WINDOWS}")
        if self.segments < 1:
            raise ValueError("segments must be >= 1")
        if not (0.0 <= self.overlap < 1.0):
            raise ValueError("overlap must lie in [0, 1)")


@dataclass(frozen=True)
class SpectralMatrix:
    """One-sided cross-spectral density matrix on a uniform frequency grid.

    The auto-spectra cover the whole grid; the cross-spectra may cover only
    its first lines, the ones the identifiers read (see :func:`csd_matrix`).

    Attributes
    ----------
    frequencies : ndarray
        Uniform grid in Hz, ``n_freqs`` lines.
    values : ndarray
        Complex CSD tensor of the first ``n_lines <= n_freqs`` lines, shape
        ``(n_lines, l, l)``; each line is Hermitian.
    auto_spectra : ndarray
        Real auto-spectra on the whole grid, shape ``(l, n_freqs)``.
    """

    frequencies: np.ndarray
    values: np.ndarray
    auto_spectra: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.frequencies, dtype=float)
        g = np.asarray(self.values, dtype=complex)
        if g.ndim != 3 or g.shape[1] != g.shape[2] or not 1 <= g.shape[0] <= f.size:
            raise ValueError("values must have shape (n_lines, l, l) with "
                             "1 <= n_lines <= n_freqs")
        auto = np.asarray(self.auto_spectra, dtype=float)
        if auto.shape != (g.shape[1], f.size):
            raise ValueError("auto_spectra must have shape (l, n_freqs)")
        herm = np.max(np.abs(g - np.conj(np.transpose(g, (0, 2, 1)))))
        scale = max(np.max(np.abs(g)), 1.0)
        if herm > 1e-10 * scale:
            raise ValueError("spectral matrix is not Hermitian")
        for arr in (f, g, auto):
            arr.setflags(write=False)
        object.__setattr__(self, "frequencies", f)
        object.__setattr__(self, "values", g)
        object.__setattr__(self, "auto_spectra", auto)

    @property
    def n_channels(self) -> int:
        return self.values.shape[1]

    def lines(self, lo: int, hi: int) -> np.ndarray:
        """Cross-spectra of grid lines ``lo:hi``, with ``hi`` clipped to the grid.

        Raises ``ValueError`` naming the highest requested line when it lies
        beyond the stored ones.
        """
        hi = min(hi, self.frequencies.size)
        if hi > self.values.shape[0]:
            raise ValueError(f"CSD line {hi - 1} ({self.frequencies[hi - 1]:g} Hz) lies "
                             f"beyond the {self.values.shape[0]} stored cross-spectrum "
                             "lines; estimate the matrix with a higher f_max")
        return self.values[lo:hi]


def _segment_plan(n_samples: int, options: SpectralEstimatorOptions) -> tuple[int, list[int]]:
    """Return (segment length, list of segment start indices)."""
    s = options.segments
    nseg = int(n_samples // (1 + (s - 1) * (1 - options.overlap)))
    if nseg < 16:
        raise IdentificationError("estimator options leave segments shorter than 16 samples")
    if s == 1:
        return n_samples, [0]
    step = (n_samples - nseg) // (s - 1)
    if step < 1:
        raise IdentificationError("too many segments for this record length")
    return nseg, [k * step for k in range(s)]


def _window(kind: str, n: int) -> np.ndarray:
    if kind == "hann":
        return np.hanning(n)
    return np.ones(n)


def _segment_ffts(record: MultiChannelRecord, options: SpectralEstimatorOptions):
    nseg, starts = _segment_plan(record.n_samples, options)
    w = _window(options.window, nseg)
    u = float(np.sum(w * w))
    freqs = np.fft.rfftfreq(nseg, 1.0 / record.sample_rate)
    # Each windowed segment is transformed into its slot of X in turn, and its
    # power summed, so the windowed copies are never all held at once.
    X = np.empty((len(starts), record.n_channels, freqs.size), dtype=complex)
    auto = np.zeros(X.shape[1:])
    # One-sided density scaling; DC (and Nyquist for even lengths) not doubled.
    scale = np.full(freqs.size, 2.0 / (record.sample_rate * u))
    scale[0] = 1.0 / (record.sample_rate * u)
    if nseg % 2 == 0:
        scale[-1] = 1.0 / (record.sample_rate * u)
    with np.errstate(over="ignore"):  # an overflow is refused below
        for x, s0 in zip(X, starts):
            np.fft.rfft(record.data[:, s0:s0 + nseg] * w, axis=-1, out=x)
            auto += x.real * x.real + x.imag * x.imag
        # By the reciprocal count, as numpy divides csd_matrix's complex sums
        # by a real count: the auto-spectra equal its tensor diagonal bit for bit.
        auto *= 1.0 / len(starts)
        auto *= scale
    if not np.isfinite(auto).all():
        raise IdentificationError("auto-spectra are not finite: the record's "
                                  "spectra overflow when squared")
    return freqs, X, scale, auto


def psd(record: MultiChannelRecord,
        options: SpectralEstimatorOptions = SpectralEstimatorOptions()):
    """Estimate one-sided auto power spectral densities per channel.

    Returns
    -------
    frequencies : ndarray
        Grid in Hz.
    densities : ndarray
        Shape ``(n_channels, n_freqs)``, :func:`csd_matrix`'s auto-spectra
        bit for bit; integrating each row against the grid recovers the
        channel power, exactly only for one rectangular segment.
    """
    freqs, _, _, auto = _segment_ffts(record, options)
    return freqs, auto


def csd_matrix(record: MultiChannelRecord,
               options: SpectralEstimatorOptions = SpectralEstimatorOptions(),
               f_max: float = np.inf) -> SpectralMatrix:
    """Estimate the one-sided cross-spectral density matrix up to ``f_max``.

    The auto-spectra cover the whole grid and are :func:`psd`'s of the same
    record and options, bit for bit.  The cross-spectra are stored on
    lines ``0`` through one past the first line at or above ``f_max`` (the
    whole grid for the default); each stored line is Hermitian by
    construction.  Every stored number equals the whole-grid estimate's.
    """
    freqs, X, scale, auto = _segment_ffts(record, options)
    n = min(int(np.searchsorted(freqs, f_max)) + 2, freqs.size)
    # G[f, j, k] = E[X_j(f) conj(X_k(f))], averaged over segments.  G[f, k, j]
    # sums the conjugates of the same products in the same order, so unfused
    # arithmetic makes each line exactly Hermitian; SpectralMatrix checks it.
    g = np.einsum("sjf,skf->fjk", X[..., :n], np.conj(X[..., :n])) / X.shape[0]
    g *= scale[:n, None, None]
    return SpectralMatrix(freqs, g, auto)
