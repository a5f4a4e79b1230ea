"""Frequency-domain identification tests.

ANPSD construction, automated peak selection, peak-picking and FDD
identification against the FE references, on clean and noise-corrupted
records.
"""

from __future__ import annotations

import numpy as np
import pytest

from omabench.dsp import (MultiChannelRecord, SpectralEstimatorOptions,
                          SpectralMatrix, csd_matrix, gaussian_white, psd)
from omabench.freqdom import (PeakOptions, _first_singular_values, _lines_nearest,
                              align_to_real, anpsd, anpsd_from_densities, fdd_identify,
                              fdd_shape_at, pick_peaks, pp_identify, pp_shape_at,
                              unit_normalize, write_curve_csv)
from omabench.harness import CampaignConfig
from omabench.metrics import mac, pair_to_reference

CAMPAIGN = CampaignConfig()
# The raw single-segment spectrum and the 6 dB floor several tests were written for.
SINGLE = SpectralEstimatorOptions("rectangular", 1, 0.0)
PEAKS_6DB = PeakOptions(prominence_db=6.0)


def paired(mode_set, art, **kw):
    return pair_to_reference(mode_set.frequencies, mode_set.shapes,
                             art.reference_frequencies, art.reference_shapes, **kw)


class TestShapeHelpers:
    def test_unit_normalize_pivot(self):
        v = unit_normalize(np.array([0.2, -0.8, 0.5]))
        assert v[1] == 1.0
        assert np.max(np.abs(v)) == 1.0

    def test_unit_normalize_zero_rejected(self):
        with pytest.raises(ValueError):
            unit_normalize(np.zeros(3))

    def test_align_to_real_recovers_rotated_vector(self):
        """A real shape rotated by a global phase comes back up to sign."""
        v = np.array([1.0, -0.6, 0.3])
        u = v * np.exp(0.7j)
        w = align_to_real(u)
        assert np.max(np.abs(np.imag(w))) == 0.0
        assert mac(w, v) == pytest.approx(1.0, abs=1e-12)

    def test_align_to_real_pure_imaginary(self):
        w = align_to_real(np.array([1j, -1j]))
        assert mac(w, [1.0, -1.0]) == pytest.approx(1.0, abs=1e-12)


    def test_row_wise_equals_vector_calls(self):
        """Stacks are aligned, normalized and MAC-scored row by row, each row
        bit-identical to the one-vector call; a zero row still raises."""
        rng = np.random.default_rng(11)
        u = rng.standard_normal((50, 10)) + 1j * rng.standard_normal((50, 10))
        u[7] = 0.0
        rows = align_to_real(u)
        for got, x in zip(rows, u):
            np.testing.assert_array_equal(got, align_to_real(x))
        with pytest.raises(ValueError, match="zero shape"):
            unit_normalize(rows)
        with pytest.raises(ValueError, match="nonzero"):
            mac(rows, rows[0])
        rows = np.delete(rows, 7, axis=0)
        shapes = unit_normalize(rows)
        for got, x in zip(shapes, rows):
            np.testing.assert_array_equal(got, unit_normalize(x))
        assert mac(shapes, rows[::-1]).tolist() == [mac(a, b) for a, b in zip(shapes, rows[::-1])]


class TestAnpsd:
    def _curve(self, n_ch=3, seed=0):
        rng = np.random.default_rng(seed)
        rec = MultiChannelRecord(1000.0, rng.standard_normal((n_ch, 2048)))
        return anpsd(rec, SINGLE)

    def test_unit_integral(self):
        curve = self._curve()
        df = curve.frequencies[1] - curve.frequencies[0]
        assert curve.values.sum() * df == pytest.approx(1.0, abs=1e-9)

    def test_single_channel_is_scaled_psd(self):
        rec = MultiChannelRecord(1000.0, gaussian_white(2048, 3))
        freqs, dens = psd(rec, SINGLE)
        curve = anpsd(rec, SINGLE)
        df = freqs[1] - freqs[0]
        np.testing.assert_allclose(curve.values, dens[0] / (dens[0].sum() * df),
                                   rtol=1e-12)

    def test_duplicated_channels_average_to_same_curve(self):
        x = gaussian_white(2048, 4)
        one = anpsd(MultiChannelRecord(1000.0, x), SINGLE)
        two = anpsd(MultiChannelRecord(1000.0, np.vstack([x, x])), SINGLE)
        np.testing.assert_allclose(two.values, one.values, rtol=1e-12)

    def test_zero_power_channel_excluded(self):
        x = gaussian_white(2048, 5)
        curve = anpsd(MultiChannelRecord(1000.0, np.vstack([x, np.zeros_like(x)])), SINGLE)
        assert curve.excluded_channels == (1,)
        df = curve.frequencies[1] - curve.frequencies[0]
        assert curve.values.sum() * df == pytest.approx(1.0, abs=1e-9)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            anpsd(MultiChannelRecord(1000.0, np.zeros((2, 64))), SINGLE)

    def test_single_channel_scaling_invariance(self):
        """Scaling one channel by any positive constant leaves the curve."""
        rng = np.random.default_rng(6)
        data = rng.standard_normal((3, 2048))
        base = anpsd(MultiChannelRecord(1000.0, data), SINGLE)
        for c in (1e-4, 3.7, 2.5e5):
            scaled = data.copy()
            scaled[1] *= c
            curve = anpsd(MultiChannelRecord(1000.0, scaled), SINGLE)
            np.testing.assert_allclose(curve.values, base.values, rtol=1e-9)

    def test_grid_mismatch_rejected(self):
        with pytest.raises(ValueError):
            anpsd_from_densities(np.arange(10.0), np.ones((2, 11)))

    def test_clean_record_peaks_at_reference_frequencies(self, cf):
        """The clean ANPSD has a local maximum within 0.2 Hz of each mode."""
        curve = anpsd(cf.clean_record, SINGLE)
        f, v = curve.frequencies, curve.values
        for fr in cf.reference_frequencies:
            sel = np.nonzero(np.abs(f - fr) <= 0.2)[0]
            hit = any(0 < i < f.size - 1 and v[i] >= v[i - 1] and v[i] >= v[i + 1]
                      for i in sel)
            assert hit, f"no local maximum within 0.2 Hz of {fr:.2f} Hz"


class TestPickPeaks:
    GRID = np.arange(0.0, 100.0, 0.5)

    def _spectrum(self, *freqs, height=1000.0):
        v = np.ones_like(self.GRID)
        for fr in freqs:
            v[int(round(fr / 0.5))] = height
        return v

    def test_two_isolated_peaks(self):
        peaks = pick_peaks(self.GRID, self._spectrum(10.0, 20.0), PEAKS_6DB)
        assert [p.frequency for p in peaks] == [10.0, 20.0]

    def test_flat_spectrum(self):
        assert pick_peaks(self.GRID, np.ones_like(self.GRID), PEAKS_6DB) == []

    def test_band_outside_grid(self):
        opts = PeakOptions(prominence_db=6.0, band=(500.0, 600.0))
        assert pick_peaks(self.GRID, self._spectrum(10.0), opts) == []

    def test_separation_keeps_strongest(self):
        """Two candidates 1 Hz apart collapse to the higher one."""
        v = self._spectrum(10.0, height=500.0)
        v[int(round(11.0 / 0.5))] = 1000.0
        peaks = pick_peaks(self.GRID, v, PeakOptions(prominence_db=6.0, min_separation_hz=2.0))
        assert len(peaks) == 1
        assert peaks[0].frequency == 11.0

    def test_prominence_floor(self):
        """A bump below the prominence threshold is not a peak."""
        v = np.ones_like(self.GRID)
        v[20] = 2.0  # 3 dB over the median, under the 6 dB floor
        assert pick_peaks(self.GRID, v, PEAKS_6DB) == []
        assert len(pick_peaks(self.GRID, v, PeakOptions(prominence_db=2.0))) == 1

    def test_refinement_stays_within_half_bin(self):
        rng = np.random.default_rng(8)
        v = np.abs(rng.standard_normal(self.GRID.size)) + 0.1
        v[40] += 30.0
        v[120] += 40.0
        for p in pick_peaks(self.GRID, v, PeakOptions(prominence_db=3.0)):
            assert abs(p.frequency - self.GRID[p.bin_index]) <= 0.25 + 1e-12

    def test_sorted_ascending(self):
        peaks = pick_peaks(self.GRID, self._spectrum(30.0, 10.0, 20.0), PEAKS_6DB)
        f = [p.frequency for p in peaks]
        assert f == sorted(f)

    def test_mismatched_arrays_rejected(self):
        with pytest.raises(ValueError):
            pick_peaks(self.GRID, np.ones(self.GRID.size + 1), PEAKS_6DB)

    def test_options_validation(self):
        with pytest.raises(ValueError):
            PeakOptions(prominence_db=-1.0)
        with pytest.raises(ValueError):
            PeakOptions(min_separation_hz=-1.0)
        with pytest.raises(ValueError):
            PeakOptions(band=(10.0, 10.0))


    @pytest.mark.parametrize("separation", [0.0, 2.0, 25.0])
    @pytest.mark.parametrize("level", [0.0, 0.5, 2.0])
    def test_thinning_matches_candidate_loop(self, noisy_record, level, separation):
        """On the campaign ANPSD and first-singular-value curves the kept
        peaks are those of thinning one candidate at a time."""
        g = csd_matrix(noisy_record("CF", level), CAMPAIGN.estimator)
        peaks = PeakOptions(CAMPAIGN.peaks.prominence_db, separation, CAMPAIGN.peaks.band)
        f = g.frequencies
        for v in (anpsd_from_densities(f, g.auto_spectra).values,
                  _first_singular_values(g.values)):
            got = [pk.bin_index for pk in pick_peaks(f, v, peaks)]
            assert got == _thinned_by_loop(f, v, peaks)


def _thinned_by_loop(f, v, options):
    """Oracle: the bins pick_peaks keeps, strongest candidate first, each
    tested against every peak kept before it."""
    lo, hi = options.band
    sel = np.nonzero((f >= lo) & (f <= hi))[0]
    floor = np.median(v[sel]) * 10.0 ** (options.prominence_db / 10.0)
    inner = sel[(sel > 0) & (sel < f.size - 1)]
    cand = inner[(v[inner] > v[inner - 1]) & (v[inner] >= v[inner + 1]) & (v[inner] >= floor)]
    kept: list[int] = []
    for idx in cand[np.argsort(v[cand])[::-1]]:
        if all(abs(f[idx] - f[j]) >= options.min_separation_hz for j in kept):
            kept.append(int(idx))
    return sorted(kept)


class TestAnpsdPeaksUnderNoise:
    """Peak survival on the averaged ANPSD at the harshest noise level."""

    def _peaks(self, noisy_record):
        rec = noisy_record("CF", 2.0)
        curve = anpsd(rec, CAMPAIGN.estimator)
        return pick_peaks(curve.frequencies, curve.values, CAMPAIGN.peaks)

    def test_mode_one_drowned_higher_modes_persist(self, cf, noisy_record):
        """At NL = 2.0 no peak survives near mode 1; modes 3-5 persist."""
        peaks = self._peaks(noisy_record)
        ref = cf.reference_frequencies
        near_m1 = [p for p in peaks if abs(p.frequency - ref[0]) <= 0.05 * ref[0]]
        assert near_m1 == []
        for fr in ref[2:]:
            assert any(abs(p.frequency - fr) <= 0.05 * fr for p in peaks)

    @pytest.mark.xfail(reason="mode-2 peak drops below the automated "
                       "prominence floor at NL = 2.0; reported tables keep it "
                       "via manual selection", strict=True)
    def test_mode_two_persists(self, cf, noisy_record):
        peaks = self._peaks(noisy_record)
        f2 = cf.reference_frequencies[1]
        assert any(abs(p.frequency - f2) <= 0.05 * f2 for p in peaks)


class TestPpIdentify:
    def test_clean_ss_mode_shape(self, beam_artifacts):
        """Mode-1 shape of the clean SS record matches FE with MAC >= 0.999."""
        art = beam_artifacts["SS"]
        matches = paired(pp_identify(csd_matrix(art.clean_record, SINGLE), PEAKS_6DB), art)
        assert matches[0] is not None
        assert matches[0][2] >= 0.999

    def test_clean_cf_all_modes_pair(self, cf):
        """All five clean CF modes pair with MAC >= 0.999."""
        matches = paired(pp_identify(csd_matrix(cf.clean_record, SINGLE), PEAKS_6DB), cf)
        assert None not in matches
        for m in matches:
            assert m[2] >= 0.999

    @pytest.mark.xfail(reason="raw single-segment spectra of one random "
                       "5 s excitation wander by more than two bins at the "
                       "higher modes", strict=True)
    def test_clean_cf_frequencies_within_two_bins(self, cf):
        """Five clean-record frequencies inside +-0.4 Hz of the reference."""
        matches = paired(pp_identify(csd_matrix(cf.clean_record, SINGLE), PEAKS_6DB), cf)
        for m, fr in zip(matches, cf.reference_frequencies):
            assert m is not None and abs(m[1] - fr) <= 0.4

    def test_moderate_noise_keeps_mode_one_shape(self, cf, noisy_record):
        """At NL = 0.20 the mode-1 shape stays above MAC 0.95."""
        rec = noisy_record("CF", 0.2)
        mode_set = pp_identify(csd_matrix(rec, CAMPAIGN.estimator), CAMPAIGN.peaks)
        matches = paired(mode_set, cf)
        assert matches[0] is not None
        assert matches[0][2] >= 0.95

    def test_default_reference_channel_is_strongest(self, cf):
        """The free-end channel (node 11) carries the largest band power."""
        mode_set = pp_identify(csd_matrix(cf.clean_record, SINGLE), PEAKS_6DB)
        assert mode_set.notes[0] == "reference_channel=9"
        assert cf.clean_record.labels[9] == "node11"

    def test_reference_channel_override(self, cf):
        mode_set = pp_identify(csd_matrix(cf.clean_record, SINGLE), PEAKS_6DB, reference_channel=0)
        assert mode_set.notes[0] == "reference_channel=0"
        with pytest.raises(ValueError):
            pp_identify(csd_matrix(cf.clean_record, SINGLE), PEAKS_6DB, reference_channel=99)

    def test_zero_reference_spectrum_drops_peaks(self):
        """Peaks without reference auto-power are dropped with a note."""
        t = np.arange(4096) / 1000.0
        x = np.sin(2.0 * np.pi * 100.0 * t)
        rec = MultiChannelRecord(1000.0, np.vstack([x, np.zeros_like(x)]))
        mode_set = pp_identify(csd_matrix(rec, SINGLE), PEAKS_6DB, reference_channel=1)
        assert mode_set.modes == ()
        assert any("zero reference auto-spectrum" in n for n in mode_set.notes)

    @pytest.mark.parametrize("level", [0.0, 0.5, 2.0])
    @pytest.mark.parametrize("beam_id", ["CF", "SS", "CS", "CC"])
    @pytest.mark.parametrize("method", [pp_identify, fdd_identify], ids=["PP", "FDD"])
    def test_mode_set_invariants(self, noisy_record, method, beam_id, level):
        """Frequencies ascend more than one grid line apart; shapes peak at +1."""
        g = csd_matrix(noisy_record(beam_id, level), CAMPAIGN.estimator)
        mode_set = method(g, CAMPAIGN.peaks)
        assert mode_set.modes
        assert np.all(np.diff(mode_set.frequencies) > g.frequencies[1] - g.frequencies[0])
        for shape in mode_set.shapes:
            assert np.max(shape) == pytest.approx(1.0, abs=1e-12)
            assert np.max(np.abs(shape)) <= 1.0 + 1e-12


class TestFddIdentify:
    def _rank_one(self):
        """Rank-1 CSD G(f) = s(f) phi phi^T on a 200-line grid."""
        f = np.linspace(0.0, 99.5, 200)
        s = 1.0 / (1.0 + ((f - 40.0) / 5.0) ** 2)
        phi = np.array([1.0, -0.5, 0.25])
        g = s[:, None, None] * np.einsum("j,k->jk", phi, phi)[None, :, :]
        return SpectralMatrix(f, g.astype(complex), np.real(np.einsum("fii->if", g))), s, phi

    def test_rank_one_singular_curve(self):
        G, s, phi = self._rank_one()
        s1 = _first_singular_values(G.values)
        np.testing.assert_allclose(s1, s * np.dot(phi, phi), rtol=1e-9)

    def test_rank_one_second_singular_value_vanishes(self):
        G, _, phi = self._rank_one()
        vals = np.linalg.eigvalsh(G.values)
        assert np.max(np.abs(vals[:, -2])) <= 1e-12 * np.dot(phi, phi)

    def test_rank_one_shape_recovery(self):
        G, _, phi = self._rank_one()
        [shape] = fdd_shape_at(G, [40.0])
        assert mac(shape, phi) == pytest.approx(1.0, abs=1e-12)

    def test_clean_cf_all_modes(self, cf):
        """All five clean CF modes pair with MAC >= 0.995."""
        matches = paired(fdd_identify(csd_matrix(cf.clean_record, SINGLE), PEAKS_6DB), cf)
        assert None not in matches
        for m in matches:
            assert m[2] >= 0.995

    def test_harsh_noise_keeps_higher_modes(self, cf, noisy_record):
        """At NL = 2.0 modes 2-5 pair with MAC >= 0.95; mode 1 does not."""
        rec = noisy_record("CF", 2.0)
        mode_set = fdd_identify(csd_matrix(rec, CAMPAIGN.estimator), CAMPAIGN.peaks)
        matches = paired(mode_set, cf)
        assert matches[0] is None
        for m in matches[1:]:
            assert m is not None and m[2] >= 0.95

    @pytest.mark.parametrize("band", [CAMPAIGN.peaks.band, (0.0, 300.0)])
    def test_band_slice_matches_full_curve(self, noisy_record, band):
        """Decomposing only the search band changes no bit of the result.

        The reference picks peaks on the full-grid singular value curve and
        takes each shape there.
        """
        peaks = PeakOptions(CAMPAIGN.peaks.prominence_db, CAMPAIGN.peaks.min_separation_hz, band)
        g = csd_matrix(noisy_record("CF", 0.5), CAMPAIGN.estimator)
        s1 = np.maximum(np.linalg.eigvalsh(g.values)[:, -1], 0.0)
        expected = []
        for pk in pick_peaks(g.frequencies, s1, peaks):
            _, vecs = np.linalg.eigh(g.values[pk.bin_index])
            expected.append((pk.frequency, unit_normalize(align_to_real(vecs[:, -1]))))
        mode_set = fdd_identify(g, peaks)
        assert len(mode_set.modes) == len(expected) >= 5
        for mode, (f, shape) in zip(mode_set.modes, expected):
            assert mode.frequency == f
            np.testing.assert_array_equal(mode.shape, shape)


    def test_read_past_stored_lines_raises(self, noisy_record):
        """A matrix stored to 300 Hz names the line a read beyond it asks for."""
        g = csd_matrix(noisy_record("CF", 0.5), CAMPAIGN.estimator, f_max=300.0)
        with pytest.raises(ValueError, match=r"CSD line 500 \(500 Hz\)"):
            pp_shape_at(g, 0, [500.0])
        with pytest.raises(ValueError, match=r"CSD line 500 \(500 Hz\)"):
            fdd_shape_at(g, [500.0])
        with pytest.raises(ValueError, match=r"CSD line 1201 \(1201 Hz\)"):
            fdd_identify(g, CAMPAIGN.peaks)
        with pytest.raises(ValueError, match="CSD line"):
            pp_identify(g, CAMPAIGN.peaks)


class TestBatchedShapeReads:
    """A sequence of frequencies reads each line as a one-element sequence
    does, bit for bit."""

    FREQS = [51.3, 8.0, 280.9, 8.0, 144.6, 463.9]

    def test_pp_equals_per_frequency_calls(self, noisy_record):
        g = csd_matrix(noisy_record("CF", 0.5), CAMPAIGN.estimator)
        batched = pp_shape_at(g, 3, self.FREQS)
        assert len(batched) == len(self.FREQS)
        for f, shape in zip(self.FREQS, batched):
            line = g.values[int(np.argmin(np.abs(g.frequencies - f)))]
            col = line[:, 3]
            by_formula = unit_normalize(np.abs(col) / line[3, 3].real * np.where(
                np.abs(np.angle(col)) < np.pi / 2.0, 1.0, -1.0))
            assert np.array_equal(shape, pp_shape_at(g, 3, [f])[0])
            assert np.array_equal(shape, by_formula)

    def test_fdd_equals_per_frequency_calls(self, noisy_record):
        g = csd_matrix(noisy_record("CF", 0.5), CAMPAIGN.estimator)
        batched = fdd_shape_at(g, self.FREQS)
        assert len(batched) == len(self.FREQS)
        for f, shape in zip(self.FREQS, batched):
            _, vecs = np.linalg.eigh(g.values[int(np.argmin(np.abs(g.frequencies - f)))])
            assert np.array_equal(shape, fdd_shape_at(g, [f])[0])
            assert np.array_equal(shape, unit_normalize(align_to_real(vecs[:, -1])))

    def test_empty_sequence(self, noisy_record):
        g = csd_matrix(noisy_record("CF", 0.5), CAMPAIGN.estimator)
        assert pp_shape_at(g, 0, []) == []
        assert fdd_shape_at(g, []) == []

    @staticmethod
    def _two_bumps():
        """Modes at 20 and 40 Hz on three channels; channel 0 is still at 40 Hz,
        where its auto-spectrum is exactly zero."""
        f = np.arange(200) * 0.5
        phi = np.array([[1.0, 0.5, -0.3], [0.0, 1.0, 0.8]])
        s = np.maximum(0.0, 1.0 - np.abs(f[:, None] - [20.0, 40.0]) / 3.0)
        g = np.einsum("fm,mj,mk->fjk", s, phi, phi).astype(complex)
        return SpectralMatrix(f, g, np.real(np.einsum("fii->if", g)))

    def test_nearest_line_matches_argmin(self):
        """Midpoints go to the lower line and frequencies off the grid to its
        ends, as argmin's first minimum does."""
        g = self._two_bumps()
        f = g.frequencies
        probes = np.concatenate([f, (f[:-1] + f[1:]) / 2, [-3.0, 1e6],
                                 np.random.default_rng(0).uniform(-1.0, 101.0, 200)])
        nearest = [int(np.argmin(np.abs(f - x))) for x in probes]
        assert np.array_equal(_lines_nearest(g, probes), g.values[nearest])

    def test_pp_vanishing_reference_line(self):
        """A line with no reference power reads None amid live lines, and
        pp_identify drops that peak with its note."""
        g = self._two_bumps()
        batched = pp_shape_at(g, 0, [20.0, 40.0, 21.0])
        assert batched[1] is None and pp_shape_at(g, 0, [40.0]) == [None]
        for f, shape in zip((20.0, 21.0), batched[::2]):
            assert np.array_equal(shape, pp_shape_at(g, 0, [f])[0])
        mode_set = pp_identify(g, PeakOptions(), reference_channel=0)
        assert [m.frequency for m in mode_set.modes] == [20.0]
        assert "dropped_peak_at=40.000Hz (zero reference auto-spectrum)" in mode_set.notes

    def test_read_past_stored_lines_raises(self, noisy_record):
        """One line past the stored ones fails the whole read and is named."""
        g = csd_matrix(noisy_record("CF", 0.5), CAMPAIGN.estimator, f_max=300.0)
        with pytest.raises(ValueError, match=r"CSD line 500 \(500 Hz\)"):
            pp_shape_at(g, 0, [100.0, 500.0, 200.0])
        with pytest.raises(ValueError, match=r"CSD line 500 \(500 Hz\)"):
            fdd_shape_at(g, [100.0, 500.0, 200.0])


class TestMethodAgreement:
    @pytest.mark.xfail(reason="ANPSD and first-singular-value curves are "
                       "different spectra; their raw single-segment peaks "
                       "split by more than one bin at mode 2", strict=True)
    def test_pp_fdd_agree_within_one_bin(self, cf):
        """Clean-record PP and FDD frequencies agree to one grid bin."""
        pp = paired(pp_identify(csd_matrix(cf.clean_record, SINGLE), PEAKS_6DB), cf)
        fd = paired(fdd_identify(csd_matrix(cf.clean_record, SINGLE), PEAKS_6DB), cf)
        df = 1.0 / cf.clean_record.duration
        for a, b in zip(pp, fd):
            assert a is not None and b is not None
            assert abs(a[1] - b[1]) <= df + 1e-9

    def test_identified_frequencies_sit_on_the_grid(self, cf, noisy_record):
        """Every identified frequency lies within one bin of a grid line."""
        for level in (0.0, 0.5):
            rec = noisy_record("CF", level)
            for method in (pp_identify, fdd_identify):
                mode_set = method(csd_matrix(rec, CAMPAIGN.estimator), CAMPAIGN.peaks)
                nseg = rec.n_samples // 5
                grid = np.fft.rfftfreq(nseg, 1.0 / rec.sample_rate)
                df = grid[1] - grid[0]
                for f in mode_set.frequencies:
                    assert np.min(np.abs(grid - f)) <= df


class TestCurveCsv:
    def test_round_trip(self, tmp_path):
        f = np.linspace(0.0, 10.0, 11)
        v = np.exp(-f)
        path = tmp_path / "curve.csv"
        write_curve_csv(path, f, v)
        header = path.read_text().splitlines()[0]
        assert header == "frequency_hz,value"
        back = np.loadtxt(path, delimiter=",", skiprows=1)
        np.testing.assert_array_equal(back[:, 0], f)
        np.testing.assert_array_equal(back[:, 1], v)

    def test_mismatch_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_curve_csv(tmp_path / "c.csv", [1.0, 2.0], [1.0])
