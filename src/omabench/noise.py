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

import numpy as np

from .dsp import MultiChannelRecord, derive_seed, gaussian_white

__all__ = ["noise_level_to_snr_db", "corrupt"]


def noise_level_to_snr_db(level: float) -> float:
    """Nominal SNR in dB for a noise level: ``-20 log10(level)``."""
    if level <= 0:
        raise ValueError("noise level must be positive")
    return -20.0 * math.log10(level)


def corrupt(record: MultiChannelRecord, level: float,
            seed: int) -> tuple[MultiChannelRecord, tuple[float | None, ...] | None]:
    """Return the noisy record and its realized per-channel SNR [dB].

    Channel ``j`` gets ``rms_j * level * w_j(t)`` with an independent
    standard normal stream per channel derived from ``seed``.  Level 0
    returns ``record`` itself and no SNR.  The SNR of a channel is
    ``10 log10(P_signal / P_noise)`` with mean-square powers; it is ``None``
    for a channel with zero signal RMS, which receives no noise.
    """
    if not 0 <= level < math.inf:
        raise ValueError("noise level must be >= 0 and finite")
    if level == 0:
        return record, None
    p_s = np.mean(record.data ** 2, axis=1)
    rms = np.sqrt(p_s)
    noise = np.empty_like(record.data)
    for j in range(record.n_channels):
        w = gaussian_white(record.n_samples, derive_seed(seed, "channel", j))
        noise[j] = rms[j] * level * w
    p_n = np.mean(noise ** 2, axis=1)
    snr_db = tuple(None if pn == 0.0 else 10.0 * math.log10(float(ps / pn))
                   for ps, pn in zip(p_s, p_n))
    return MultiChannelRecord(record.sample_rate, record.data + noise, record.labels), snr_db
