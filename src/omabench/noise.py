"""RMS-scaled additive Gaussian measurement noise with calibrated SNR.

Each channel of a record is corrupted independently with
``noise = rms(signal) * level * w(t)`` where ``w`` is a fresh standard
normal stream.  The white stream is not re-normalized, so the realized
noise power fluctuates around ``signal_power * level**2`` exactly as a
real measurement chain would; the nominal signal-to-noise ratio is
``1 / level**2``, i.e. ``-20 log10(level)`` dB.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dsp import MultiChannelRecord, derive_seed, gaussian_white

__all__ = ["NoiseSpec", "noise_level_to_snr_db", "make_noise", "corrupt"]


@dataclass(frozen=True)
class NoiseSpec:
    """Noise level (RMS fraction of the signal, >= 0) and stream seed."""

    level: float
    seed: int

    def __post_init__(self):
        if self.level < 0:
            raise ValueError("noise level must be >= 0")


def noise_level_to_snr_db(level: float) -> float:
    """Nominal SNR in dB for a noise level: ``-20 log10(level)``."""
    if level <= 0:
        raise ValueError("noise level must be positive")
    return -20.0 * math.log10(level)


def make_noise(record: MultiChannelRecord, spec: NoiseSpec) -> MultiChannelRecord:
    """Build the additive noise record for ``record`` under ``spec``.

    Channel ``j`` gets ``rms_j * level * w_j(t)`` with an independent
    standard normal stream per channel derived from ``spec.seed``.
    """
    rms = record.rms_per_channel()
    out = np.zeros_like(record.data)
    if spec.level > 0:
        for j in range(record.n_channels):
            w = gaussian_white(record.n_samples, derive_seed(spec.seed, "channel", j))
            out[j] = rms[j] * spec.level * w
    return record.with_data(out)


def corrupt(record: MultiChannelRecord,
            spec: NoiseSpec) -> tuple[MultiChannelRecord, tuple[float | None, ...]]:
    """Return the noisy record and its realized per-channel SNR [dB].

    The SNR of a channel is ``10 log10(P_signal / P_noise)`` with mean-square
    powers; it is ``None`` for a channel that received no noise (noise level
    0, or a channel with zero signal RMS).
    """
    noise = make_noise(record, spec)
    noisy = record.with_data(record.data + noise.data)
    p_s = np.mean(record.data ** 2, axis=1)
    p_n = np.mean(noise.data ** 2, axis=1)
    snr_db = tuple(None if pn == 0.0 else 10.0 * math.log10(float(ps / pn))
                   for ps, pn in zip(p_s, p_n))
    return noisy, snr_db
