"""Noise injection tests.

Verifies the SNR algebra against the published level table, the RMS-scaled
per-channel corruption (realized SNR, chi-square concentration, channel
independence) and the additive bookkeeping of the corrupt operation.
"""

from __future__ import annotations

import numpy as np
import pytest

from omabench.dsp import MultiChannelRecord, derive_seed, gaussian_white
from omabench.harness import DEFAULT_NOISE_LEVELS
from omabench.noise import corrupt, noise_level_to_snr_db

# level -> nominal SNR in dB, rounded to two decimals
LEVEL_TABLE = {
    0.05: 26.02,
    0.10: 20.00,
    0.20: 13.98,
    0.50: 6.02,
    0.75: 2.50,
    1.00: 0.00,
    2.00: -6.02,
}


def white_record(n_channels: int = 3, n: int = 50000, seed: int = 100) -> MultiChannelRecord:
    data = np.vstack([gaussian_white(n, seed + j) for j in range(n_channels)])
    return MultiChannelRecord(10000.0, data)


class TestSnrAlgebra:
    def test_level_table(self):
        """-20 log10(NL) rounds to the published dB value at every level."""
        for level, db in LEVEL_TABLE.items():
            assert noise_level_to_snr_db(level) == pytest.approx(db, abs=0.005)

    def test_unity_level_is_zero_db(self):
        assert noise_level_to_snr_db(1.0) == 0.0

    def test_nominal_snr_is_inverse_square(self):
        for level in DEFAULT_NOISE_LEVELS:
            snr = 10.0 ** (noise_level_to_snr_db(level) / 10.0)
            assert snr == pytest.approx(1.0 / level ** 2, rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            noise_level_to_snr_db(0.0)
        with pytest.raises(ValueError):
            noise_level_to_snr_db(-0.1)
        for level in (-0.1, float("inf"), float("nan")):
            with pytest.raises(ValueError, match="noise level must be >= 0 and finite"):
                corrupt(white_record(1, 10), level, 1)


def added_noise(rec: MultiChannelRecord, level: float, seed: int) -> np.ndarray:
    """The noise ``corrupt`` adds to ``rec``: noisy minus clean samples."""
    noisy, _ = corrupt(rec, level, seed)
    return noisy.data - rec.data


class TestMakeNoise:
    """The added noise stream: its power, channel independence and seeding."""

    def test_zero_level_zero_noise(self):
        rec = white_record(2, 1000)
        np.testing.assert_array_equal(added_noise(rec, 0.0, 7), 0.0)

    def test_noise_power_concentration(self):
        """Realized P_n / (P_s * NL^2) lies in 1 +- 0.02 at 50000 samples."""
        rec = white_record(3)
        noise = added_noise(rec, 0.2, 7)
        p_s = np.mean(rec.data ** 2, axis=1)
        p_n = np.mean(noise ** 2, axis=1)
        np.testing.assert_allclose(p_n / (p_s * 0.2 ** 2), 1.0, atol=0.02)

    def test_channels_independent(self):
        """Generated noise channels decorrelate within +-0.02."""
        rec = white_record(4)
        noise = added_noise(rec, 1.0, 7)
        z = noise / noise.std(axis=1, keepdims=True)
        c = z @ z.T / z.shape[1]
        off = c[~np.eye(4, dtype=bool)]
        assert np.max(np.abs(off)) <= 0.02

    def test_deterministic(self):
        rec = white_record(2, 1000)
        np.testing.assert_array_equal(added_noise(rec, 0.5, 9), added_noise(rec, 0.5, 9))

    def test_seed_changes_stream(self):
        rec = white_record(1, 1000)
        a = added_noise(rec, 0.5, 9)
        b = added_noise(rec, 0.5, 10)
        assert np.max(np.abs(a - b)) > 0.0


class TestCorrupt:
    def test_zero_level_identity(self):
        """NL = 0 returns the input samples bit-exactly."""
        rec = white_record(2, 1000)
        noisy, _ = corrupt(rec, 0.0, 7)
        np.testing.assert_array_equal(noisy.data, rec.data)

    def test_zero_level_returns_record_itself(self):
        """NL = 0 returns the input record object, uncopied, and no SNR."""
        rec = white_record(2, 1000)
        noisy, snr_db = corrupt(rec, 0.0, 7)
        assert noisy is rec
        assert snr_db is None

    def test_subtracting_noise_recovers_input(self):
        rec = white_record(2, 1000)
        noisy, _ = corrupt(rec, 0.75, 7)
        rms = np.sqrt(np.mean(rec.data ** 2, axis=1))
        noise = np.vstack([rms[j] * 0.75 * gaussian_white(1000, derive_seed(7, "channel", j))
                           for j in range(2)])
        np.testing.assert_allclose(noisy.data - noise, rec.data, atol=1e-12)

    def test_realized_snr_near_nominal(self):
        """Realized per-channel SNR stays within 0.2 dB at 50000 samples."""
        rec = white_record(3)
        for level in (0.05, 1.0):
            _, snr_db = corrupt(rec, level, 11)
            nominal = noise_level_to_snr_db(level)
            assert len(snr_db) == 3
            for db in snr_db:
                assert db == pytest.approx(nominal, abs=0.2)

    def test_realized_snr_converges(self):
        """At 1e6 samples the realized SNR is within 0.05 dB of nominal."""
        data = gaussian_white(1_000_000, 5)
        rec = MultiChannelRecord(10000.0, data)
        _, snr_db = corrupt(rec, 0.5, 13)
        assert snr_db[0] == pytest.approx(noise_level_to_snr_db(0.5), abs=0.05)

    def test_report_accounting(self):
        """SNR_dB = 10 log10(P_s / P_n), recomputed from the two records."""
        rec = white_record(2, 2000)
        noisy, snr_db = corrupt(rec, 0.2, 3)
        p_s = np.mean(rec.data ** 2, axis=1)
        p_n = np.mean((noisy.data - rec.data) ** 2, axis=1)
        np.testing.assert_allclose(snr_db, 10.0 * np.log10(p_s / p_n), rtol=1e-9)

    def test_zero_channel_has_no_snr(self):
        """A channel with zero signal receives no noise and reports no SNR."""
        rec = white_record(2, 1000)
        rec = MultiChannelRecord(rec.sample_rate, np.vstack([rec.data[0], np.zeros(1000)]))
        noisy, snr_db = corrupt(rec, 0.5, 4)
        np.testing.assert_array_equal(noisy.data[1], 0.0)
        assert snr_db[0] is not None and snr_db[1] is None

    def test_deterministic(self):
        rec = white_record(2, 1000)
        a, _ = corrupt(rec, 0.5, 21)
        b, _ = corrupt(rec, 0.5, 21)
        np.testing.assert_array_equal(a.data, b.data)

    def test_preserves_metadata(self):
        rec = MultiChannelRecord(100.0, np.random.default_rng(0).standard_normal((2, 100)),
                                 ("5", "6"))
        noisy, _ = corrupt(rec, 0.1, 2)
        assert noisy.labels == rec.labels
        assert noisy.sample_rate == rec.sample_rate
