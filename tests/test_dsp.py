"""Signal toolbox tests.

Covers seed derivation, power/RMS arithmetic, the record container and its
file round trips, band-limited force synthesis, and the Welch PSD/CSD
estimators (Parseval, coherence, Hermitian structure).
"""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omabench.dsp import (MAX_SAMPLES, IdentificationError, MultiChannelRecord,
                          SpectralEstimatorOptions,
                          band_limited_force, csd_matrix, derive_seed, fmt,
                          force_lines, gaussian_white, psd, write_csv)

# One full-record rectangular segment: the exact, unaveraged estimate.
SINGLE = SpectralEstimatorOptions("rectangular", 1, 0.0)


class TestCsvWriter:
    def test_fmt(self):
        """Shortest round-trip decimal of the float; a dash for a missing value."""
        assert fmt(None) == "-"
        assert fmt(math.inf) == "inf"
        assert fmt(-math.inf) == "-inf"
        assert fmt(0) == "0.0"
        assert fmt(np.float64(0.1)) == "0.1"
        assert float(fmt(1 / 3)) == 1 / 3

    def test_write_csv_header_first_newline_ends(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["a", "b"], ([fmt(x), fmt(None)] for x in (1, 2.5)))
        assert path.read_bytes() == b"a,b\n1.0,-\n2.5,-\n"


class TestDeriveSeed:
    def test_stable_across_calls(self):
        assert derive_seed(42, "noise", "CF", 3, 7) == derive_seed(42, "noise", "CF", 3, 7)

    def test_distinct_parts_give_distinct_seeds(self):
        seen = {derive_seed(42, "noise", beam, k, r)
                for beam in ("CF", "SS") for k in range(7) for r in range(20)}
        assert len(seen) == 2 * 7 * 20

    def test_order_sensitive(self):
        assert derive_seed(1, 2) != derive_seed(2, 1)

    def test_range_and_type(self):
        s = derive_seed(0)
        assert isinstance(s, int) and 0 <= s < 2 ** 64

    def test_requires_parts(self):
        with pytest.raises(ValueError):
            derive_seed()


class TestGaussianWhite:
    def test_deterministic(self):
        np.testing.assert_array_equal(gaussian_white(1000, 5), gaussian_white(1000, 5))

    def test_moments_at_one_million(self):
        x = gaussian_white(1_000_000, 123)
        assert abs(np.mean(x)) < 0.005
        assert abs(np.var(x) - 1.0) < 0.01

    def test_streams_uncorrelated(self):
        a = gaussian_white(1_000_000, 1)
        b = gaussian_white(1_000_000, 2)
        assert abs(np.mean(a * b)) < 0.005

    def test_invalid_length(self):
        with pytest.raises(ValueError):
            gaussian_white(0, 1)


class TestMultiChannelRecord:
    def _rec(self, n_ch=3, n=64, rate=100.0):
        rng = np.random.default_rng(0)
        return MultiChannelRecord(rate, rng.standard_normal((n_ch, n)))

    def test_default_labels(self):
        assert self._rec().labels == ("ch0", "ch1", "ch2")

    def test_data_read_only(self):
        rec = self._rec()
        with pytest.raises(ValueError):
            rec.data[0, 0] = 1.0

    def test_shape_and_duration(self):
        rec = self._rec(2, 101, 100.0)
        assert rec.n_channels == 2
        assert rec.n_samples == 101
        assert rec.duration == pytest.approx(1.0, rel=1e-12)
        assert rec.times()[1] == pytest.approx(0.01, rel=1e-12)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            MultiChannelRecord(0.0, [[1.0, 2.0]])
        with pytest.raises(ValueError):
            MultiChannelRecord(10.0, [[1.0]])
        with pytest.raises(ValueError):
            MultiChannelRecord(10.0, [[1.0, np.nan]])
        with pytest.raises(ValueError):
            MultiChannelRecord(10.0, [[1.0, 2.0], [3.0, 4.0]], ("a",))
        with pytest.raises(ValueError):
            MultiChannelRecord(10.0, [[1.0, 2.0], [3.0, 4.0]], ("a", "a"))

    def test_csv_round_trip_lossless(self, tmp_path):
        """CSV uses the time,<label>... header and survives a round trip."""
        rec = MultiChannelRecord(2000.0, np.random.default_rng(1).standard_normal((2, 33)),
                                 ("2", "3"))
        path = tmp_path / "rec.csv"
        rec.to_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "time,2,3"
        back = MultiChannelRecord.from_csv(path)
        assert back.sample_rate == rec.sample_rate
        assert back.labels == rec.labels
        np.testing.assert_array_equal(back.data, rec.data)

    def test_csv_default_grid_round_trip(self, tmp_path):
        """The campaign's 10 kHz, 5 s grid passes the uniform-step check."""
        rec = MultiChannelRecord(10000.0, gaussian_white(50001, 2))
        path = tmp_path / "rec.csv"
        rec.to_csv(path)
        back = MultiChannelRecord.from_csv(path)
        assert back.sample_rate == 10000.0
        np.testing.assert_array_equal(back.data, rec.data)

    def test_csv_irregular_time_rejected(self, tmp_path):
        """A step more than 1% off the mean step is rejected, not resampled."""
        path = tmp_path / "gap.csv"
        path.write_text("time,a\n0.0,1.0\n0.1,2.0\n0.5,3.0\n0.6,1.0\n")
        with pytest.raises(ValueError, match="uniform"):
            MultiChannelRecord.from_csv(path)
        path.write_text("time,a\n0.0,1.0\n0.1,2.0\n0.2015,3.0\n0.3,1.0\n")
        with pytest.raises(ValueError, match="uniform"):
            MultiChannelRecord.from_csv(path)
        path.write_text("time,a\n0.0,1.0\n0.1,2.0\n0.2005,3.0\n0.3,1.0\n")
        assert MultiChannelRecord.from_csv(path).sample_rate == 10.0

    def test_npz_round_trip(self, tmp_path):
        rec = self._rec()
        path = tmp_path / "rec.npz"
        rec.to_npz(path)
        back = MultiChannelRecord.from_npz(path)
        assert back.sample_rate == rec.sample_rate
        np.testing.assert_array_equal(back.data, rec.data)


class TestBandLimitedForce:
    RATE = 10000.0

    def test_exact_rms(self):
        x = band_limited_force(5.0, self.RATE, (1.0, 1500.0), 0.2, [9])[0]
        assert np.sqrt(np.mean(x * x)) == pytest.approx(0.2, rel=1e-12)

    def test_out_of_band_power_negligible(self):
        """Spectral lines outside the band carry < 1e-6 of the total power."""
        x = band_limited_force(5.0, self.RATE, (1.0, 1500.0), 0.2, [9])[0]
        freqs = np.fft.rfftfreq(x.size, 1.0 / self.RATE)
        mag2 = np.abs(np.fft.rfft(x)) ** 2
        out = (freqs < 1.0) | (freqs > 1500.0)
        assert mag2[out].sum() / mag2.sum() <= 1e-6

    def test_distinct_seeds_uncorrelated(self):
        """max |normalized cross-correlation| <= 0.05 over +-100 lags."""
        n = 50000
        dur = (n - 1) / self.RATE
        a, b = band_limited_force(dur, self.RATE, (1.0, 1500.0), 0.2,
                                  [derive_seed(42, "force", 1), derive_seed(42, "force", 2)])
        denom = np.sqrt(np.sum(a * a) * np.sum(b * b))
        worst = max(abs(np.dot(a[max(0, k):n + min(0, k)], b[max(0, -k):n - max(0, k)]))
                    for k in range(-100, 101)) / denom
        assert worst <= 0.05

    def test_deterministic(self):
        np.testing.assert_array_equal(
            band_limited_force(1.0, self.RATE, (1.0, 1500.0), 0.2, [3]),
            band_limited_force(1.0, self.RATE, (1.0, 1500.0), 0.2, [3]))

    def test_zero_mean(self):
        x = band_limited_force(1.0, self.RATE, (0.0, 1500.0), 0.2, [3])[0]
        assert abs(np.mean(x)) < 1e-12

    @pytest.mark.parametrize("duration", [5.0, 4.9999])
    def test_rows_match_single_seed_calls(self, duration):
        """Batching changes no bit: each row equals the call with its seed
        alone, on the campaign grid (n = 50001, odd) and an even length."""
        seeds = [derive_seed(42, "force", "CF", k) for k in range(10)]
        x = band_limited_force(duration, self.RATE, (1.0, 1500.0), 0.2, seeds)
        assert x.shape == (10, int(round(duration * self.RATE)) + 1)
        for row, seed in zip(x, seeds):
            single = band_limited_force(duration, self.RATE, (1.0, 1500.0), 0.2, [seed])
            assert single.shape == (1, x.shape[1])
            assert np.array_equal(row, single[0])
            assert np.sqrt(np.mean(row * row)) == pytest.approx(0.2, rel=1e-12)

    def test_working_set_is_bounded(self):
        """The spectra are released before the rows are scaled one at a
        time: the traced peak stays within 2.2 times the result (ten rows of
        the campaign's 50,001 samples)."""
        seeds = [derive_seed(42, "force", "CF", k) for k in range(10)]
        tracemalloc.start()
        try:
            x = band_limited_force(5.0, self.RATE, (1.0, 1500.0), 0.2, seeds)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.2 * x.nbytes

    def test_band_validation(self):
        with pytest.raises(ValueError):
            band_limited_force(1.0, self.RATE, (1.0, 5001.0), 0.2, [3])
        with pytest.raises(ValueError):
            band_limited_force(1.0, self.RATE, (1500.0, 1.0), 0.2, [3])
        with pytest.raises(ValueError):
            band_limited_force(1.0, self.RATE, (1.0, 1500.0), 0.0, [3])
        with pytest.raises(ValueError, match="force_band must be a pair"):
            band_limited_force(1.0, self.RATE, (1.0,), 0.2, [3])
        with pytest.raises(ValueError, match="no spectral line"):
            band_limited_force(1.0, self.RATE, (1.2, 1.8), 0.2, [3])
        for duration, rate, name in ((math.inf, self.RATE, "duration"),
                                     (math.nan, self.RATE, "duration"),
                                     (1.0, math.inf, "sample_rate"), (1.0, math.nan, "sample_rate")):
            with pytest.raises(ValueError, match=f"^{name} must be positive and finite"):
                band_limited_force(duration, rate, (1.0, 1500.0), 0.2, [3])

    def test_sample_count_bound(self, monkeypatch):
        """A product of finite settings that overflows, or that exceeds the
        bound, fails before any allocation; the largest count below the
        bound is accepted."""
        message = "^duration \\* sample_rate must be below 100000000 samples"
        for duration, rate in ((1e305, self.RATE), (1.0, 1e308), (1e5, self.RATE),
                               (MAX_SAMPLES / self.RATE, self.RATE)):
            with pytest.raises(ValueError, match=message):
                force_lines(duration, rate, (1.0, 1500.0), 0.2)
            with pytest.raises(ValueError, match=message):
                band_limited_force(duration, rate, (1.0, 1500.0), 0.2, [3])
        # The largest accepted count, with the frequency grid stubbed out so
        # that nothing of that size is allocated.
        monkeypatch.setattr(np.fft, "rfftfreq", lambda n, d: np.array([0.0, 1.0]))
        n, mask = force_lines((MAX_SAMPLES - 1) / self.RATE, self.RATE, (1.0, 1500.0), 0.2)
        assert n == MAX_SAMPLES and mask.tolist() == [False, True]


class TestPsd:
    def test_working_set_is_bounded(self):
        """Segments are windowed and transformed one at a time and their
        powers summed one segment at a time: the traced peak stays below 1.4
        times the segment spectra (nine Hann segments of four channels)."""
        rec = MultiChannelRecord(10000.0, np.random.default_rng(1).standard_normal((4, 20001)))
        options = SpectralEstimatorOptions()
        tracemalloc.start()
        try:
            freqs, _ = psd(rec, options)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.4 * options.segments * rec.n_channels * freqs.size * 16

    def test_overflow_is_an_identification_error(self):
        """Amplitudes near 1e300 are finite, but their squared spectra are not;
        near 1e151 the summed squares are finite but a low sample rate's
        density scale is not: psd and csd_matrix both refuse each record."""
        data = np.random.default_rng(2).standard_normal((3, 4000))
        for scale, rate in ((1e300, 1000.0), (1e151, 1e-9)):
            rec = MultiChannelRecord(rate, data * scale)
            with pytest.raises(IdentificationError, match="not finite"):
                psd(rec)
            with pytest.raises(IdentificationError, match="not finite"):
                csd_matrix(rec)

    def test_parseval_single_segment(self):
        """One full-record rectangular segment integrates back to the power."""
        rec = MultiChannelRecord(10000.0, gaussian_white(50000, 21))
        freqs, dens = psd(rec, SINGLE)
        power = float(np.mean(rec.data[0] ** 2))
        df = freqs[1] - freqs[0]
        assert dens[0].sum() * df == pytest.approx(power, rel=1e-9)

    def test_parseval_white_noise(self):
        """Unit-variance white noise integrates to 1.0 within 5%."""
        rec = MultiChannelRecord(10000.0, gaussian_white(50000, 21))
        freqs, dens = psd(rec, SpectralEstimatorOptions("hann", 9, 0.5))
        assert dens[0].sum() * (freqs[1] - freqs[0]) == pytest.approx(1.0, rel=0.05)

    def test_on_grid_sine_peaks_at_its_bin(self):
        """A 100.0 Hz sine on a 0.2 Hz grid peaks exactly at 100.0 Hz."""
        rate, dur = 10000.0, 5.0
        t = np.arange(int(rate * dur)) / rate
        rec = MultiChannelRecord(rate, np.sin(2.0 * np.pi * 100.0 * t))
        freqs, dens = psd(rec, SINGLE)
        assert freqs[1] - freqs[0] == pytest.approx(0.2, rel=1e-12)
        assert freqs[np.argmax(dens[0])] == pytest.approx(100.0, abs=1e-9)

    def test_zero_record_zero_psd(self):
        rec = MultiChannelRecord(100.0, np.zeros((2, 64)))
        _, dens = psd(rec, SINGLE)
        np.testing.assert_array_equal(dens, 0.0)

    def test_segment_length_floor(self):
        rec = MultiChannelRecord(100.0, np.zeros((1, 64)))
        with pytest.raises(ValueError):
            psd(rec, SpectralEstimatorOptions("hann", 8, 0.0))

    def test_options_validation(self):
        with pytest.raises(ValueError):
            SpectralEstimatorOptions("flattop", 1, 0.0)
        with pytest.raises(ValueError):
            SpectralEstimatorOptions("hann", 0, 0.0)
        with pytest.raises(ValueError):
            SpectralEstimatorOptions("hann", 2, 1.0)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           n=st.integers(64, 400),
           n_ch=st.integers(1, 3))
    def test_parseval_property(self, seed, n, n_ch):
        """Integrated single-segment PSD recovers per-channel power <= 5%."""
        rng = np.random.default_rng(seed)
        rec = MultiChannelRecord(100.0, rng.standard_normal((n_ch, n)))
        freqs, dens = psd(rec, SINGLE)
        df = freqs[1] - freqs[0]
        power = np.mean(rec.data ** 2, axis=1)
        np.testing.assert_allclose(dens.sum(axis=1) * df, power, rtol=0.05)


class TestCsdMatrix:
    def test_single_channel_equals_psd(self):
        rec = MultiChannelRecord(1000.0, gaussian_white(4096, 4))
        G = csd_matrix(rec, SINGLE)
        _, dens = psd(rec, SINGLE)
        assert G.n_channels == 1
        assert np.array_equal(np.real(G.values[:, 0, 0]), dens[0])

    def test_diagonal_matches_psd_with_averaging(self):
        rec = MultiChannelRecord(1000.0, np.random.default_rng(8).standard_normal((3, 4096)))
        opts = SpectralEstimatorOptions("hann", 4, 0.5)
        G = csd_matrix(rec, opts)
        _, dens = psd(rec, opts)
        assert np.array_equal(G.auto_spectra, dens)

    def test_duplicated_channel_full_coherence(self):
        x = gaussian_white(4096, 6)
        G = csd_matrix(MultiChannelRecord(1000.0, np.vstack([x, x])),
                       SpectralEstimatorOptions("hann", 4, 0.0))
        coh = (np.abs(G.values[:, 0, 1]) ** 2
               / (np.real(G.values[:, 0, 0]) * np.real(G.values[:, 1, 1])))
        np.testing.assert_allclose(coh, 1.0, rtol=1e-9)

    def test_independent_channels_low_coherence(self):
        """8-segment averaging knocks the spurious coherence below 0.2."""
        rec = MultiChannelRecord(1000.0, np.vstack([gaussian_white(50000, 11),
                                                    gaussian_white(50000, 12)]))
        G = csd_matrix(rec, SpectralEstimatorOptions("hann", 8, 0.0))
        coh = (np.abs(G.values[:, 0, 1]) ** 2
               / (np.real(G.values[:, 0, 0]) * np.real(G.values[:, 1, 1])))
        assert np.mean(coh) <= 0.2

    def test_hermitian_lines(self):
        rec = MultiChannelRecord(1000.0, np.random.default_rng(2).standard_normal((3, 2048)))
        G = csd_matrix(rec, SpectralEstimatorOptions("hann", 4, 0.5))
        herm = np.max(np.abs(G.values - np.conj(np.transpose(G.values, (0, 2, 1)))))
        assert herm <= 1e-10 * np.max(np.abs(G.values))

    @pytest.mark.parametrize("n_samples", [20001, 19996])
    @pytest.mark.parametrize("opts", [SpectralEstimatorOptions(), SINGLE],
                             ids=["campaign", "single"])
    def test_band_estimate_equals_whole_grid(self, noisy_record, opts, n_samples):
        """The cross-spectra stored up to f_max and the whole-grid
        auto-spectra equal the whole-grid estimate bit for bit, its tensor
        diagonal included.  The two lengths give each estimator an odd and
        an even segment length."""
        rec = noisy_record("CF", 0.5)
        rec = MultiChannelRecord(rec.sample_rate, rec.data[:, :n_samples], rec.labels)
        full = csd_matrix(rec, opts)
        band = csd_matrix(rec, opts, f_max=300.0)
        n = int(np.searchsorted(full.frequencies, 300.0)) + 2
        assert band.values.shape == (n, 10, 10) and n < full.frequencies.size
        assert np.array_equal(band.frequencies, full.frequencies)
        assert np.array_equal(band.values, full.values[:n])
        assert np.array_equal(full.auto_spectra, np.real(np.einsum("fii->if", full.values)))
        assert np.array_equal(band.auto_spectra, full.auto_spectra)

    def test_working_set_is_bounded(self):
        """Only the stored lines are conjugated: with the campaign estimator
        and f_max = 300 Hz the traced peak stays below 1.6 times the segment
        spectra (four channels)."""
        rec = MultiChannelRecord(10000.0, np.random.default_rng(1).standard_normal((4, 20001)))
        options = SpectralEstimatorOptions()
        tracemalloc.start()
        try:
            G = csd_matrix(rec, options, f_max=300.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert G.values.shape[0] < G.frequencies.size
        assert peak <= 1.6 * options.segments * rec.n_channels * G.frequencies.size * 16

    def test_positive_semidefinite_when_averaged(self):
        """With segments >= channels every line is PSD within -1e-9."""
        rec = MultiChannelRecord(1000.0, np.random.default_rng(3).standard_normal((3, 4096)))
        G = csd_matrix(rec, SpectralEstimatorOptions("hann", 4, 0.0))
        eig = np.linalg.eigvalsh(G.values)
        assert eig.min() >= -1e-9 * np.max(np.abs(G.values))
