"""Campaign harness tests.

Config round trips, single corrupt-identify-score passes, the Monte Carlo
report (statistics, worst-case selection, JSON round trip) and the emitted
table files, driven by a shared CF campaign at the default seed.
"""

from __future__ import annotations

import filecmp
import gc
import json
import math
import os
import re
from contextlib import nullcontext
from dataclasses import asdict, fields, replace

import numpy as np
import pytest

from omabench import freqdom, harness
from omabench.dsp import MultiChannelRecord, SpectralEstimatorOptions, csd_matrix
from omabench.freqdom import PeakOptions, anpsd_from_densities
from omabench.harness import (_JSON, BeamConfig, CampaignConfig, BenchmarkReport,
                              MethodResult, ModeOutcome, RunResult, campaign_pool,
                              default_beams, fe_reference, identify_record, run_campaign,
                              run_single, simulate_beams, summarize_and_tables)
from omabench.metrics import PairingOptions
from omabench.ssi import SsiOptions

from conftest import CAMPAIGN_LEVELS, MASTER_SEED


def small_config(**kw) -> CampaignConfig:
    base = dict(beams=(BeamConfig("CF", "CF"),), noise_levels=(0.05,), runs=1,
                methods=("PP",), master_seed=MASTER_SEED)
    base.update(kw)
    return CampaignConfig(**base)


class TestConfig:
    def test_round_trip(self):
        config = small_config(runs=3, methods=("PP", "SSI"))
        back = CampaignConfig.from_dict(config.to_dict())
        assert back.to_dict() == config.to_dict()

    def test_round_trip_non_default(self):
        """Every section survives a JSON round trip unchanged."""
        config = small_config(
            beams=(BeamConfig("A", "SS", duration=2.0, force_band=(2.0, 900.0)),
                   BeamConfig("B", "CC", n_elements=12)),
            noise_levels=(0.0, 0.3), runs=4, n_modes=3,
            pairing=PairingOptions(f_window=0.08, mac_threshold=0.9),
            estimator=SpectralEstimatorOptions("hann", 5, 0.25),
            ssi=SsiOptions(block_rows=8, orders=(4, 8, 12), integrate=1,
                           freq_rel=0.02, min_cluster_size=2),
            output_dir="elsewhere")
        doc = json.loads(json.dumps(config.to_dict()))
        assert CampaignConfig.from_dict(doc) == config

    def test_partial_sections_merge_over_campaign_defaults(self):
        """A partial section changes only the entries it names."""
        est = CampaignConfig.from_dict({"estimator": {"segments": 9}}).estimator
        assert est == SpectralEstimatorOptions("hann", 9, 0.5)
        peaks = CampaignConfig.from_dict({"peaks": {"min_separation_hz": 3.0}}).peaks
        assert peaks.prominence_db == 4.5
        assert peaks.min_separation_hz == 3.0
        config = CampaignConfig.from_dict({"ssi": {"block_rows": 12, "mac_min": 0.9}})
        assert config.ssi == SsiOptions(block_rows=12, mac_min=0.9)
        pairing = CampaignConfig.from_dict({"pairing": {"mac_threshold": 0.8}}).pairing
        assert pairing == PairingOptions(f_window=0.05, mac_threshold=0.8)

    def test_partial_dict_fills_defaults(self):
        config = CampaignConfig.from_dict({"runs": 2})
        assert config.runs == 2
        assert config.master_seed == 42
        assert [b.beam_id for b in config.beams] == ["CF", "SS", "CS", "CC"]
        assert config.methods == ("PP", "FDD", "SSI")
        assert config.noise_levels == (0.05, 0.10, 0.20, 0.50, 0.75, 1.00, 2.00)

    def test_method_names_normalized(self):
        config = small_config(methods=("pp", "fdd"))
        assert config.methods == ("PP", "FDD")

    def test_validation(self):
        def _beam(values):
            return {"beams": [{"beam_id": "A", "support": "CF", **values}]}

        with pytest.raises(ValueError):
            small_config(runs=0)
        with pytest.raises(ValueError):
            small_config(beams=())
        with pytest.raises(ValueError):
            small_config(methods=("XX",))
        with pytest.raises(ValueError):
            small_config(noise_levels=(-0.1,))
        with pytest.raises(ValueError, match="noise levels must be distinct"):
            small_config(noise_levels=(0.5, 0.5))
        with pytest.raises(ValueError, match="methods must be distinct"):
            small_config(methods=("pp", "PP"))
        with pytest.raises(ValueError):
            small_config(beams=(BeamConfig("CF", "CF"), BeamConfig("CF", "CF")))
        with pytest.raises(ValueError):
            CampaignConfig.from_dict({"schema_version": "0"})
        unknown = [({"runz": 3}, "runz"),
                   ({"f_window": 0.1}, "f_window"),
                   ({"estimator": {"segmentz": 9}}, "estimator.segmentz"),
                   ({"pairing": {"window": 0.1}}, "pairing.window"),
                   ({"ssi": {"block_row": 12}}, "ssi.block_row"),
                   ({"beams": [{"beam_id": "X", "support": "CF", "spam": 1.0}]},
                    "beams[0].spam")]
        for doc, key in unknown:
            with pytest.raises(ValueError, match=re.escape(repr(key))):
                CampaignConfig.from_dict(doc)
        with pytest.raises(ValueError):
            CampaignConfig.from_dict({"beams": [{"beam_id": "X"}]})
        with pytest.raises(ValueError):
            CampaignConfig.from_dict({"ssi": 12})
        out_of_range = [({"pairing": {"f_window": 1.5}}, "f_window must lie in (0, 1)"),
                        ({"pairing": {"mac_threshold": 0}}, "mac_threshold must lie in (0, 1]"),
                        ({"ssi": {"mac_min": 1.5}}, "mac_min must lie in (0, 1]"),
                        ({"ssi": {"freq_rel": -0.01}}, "freq_rel and damping_abs must be positive"),
                        ({"ssi": {"damping_abs": 0}}, "freq_rel and damping_abs must be positive"),
                        ({"ssi": {"min_cluster_size": 0}}, "min_cluster_size must be >= 1"),
                        (_beam({"n_elements": 0}), "n_elements must be >= 1"),
                        (_beam({"width": 0.0}), "section dimensions must be positive"),
                        (_beam({"damping_ratio": 1.0}), "damping_ratio must lie in [0, 1)"),
                        (_beam({"force_band": [1.0, 6000.0]}),
                         "force_band must satisfy 0 <= lo < hi <= Nyquist (5000 Hz)"),
                        (_beam({"force_band": [1500.0, 1.0]}),
                         "force_band must satisfy 0 <= lo < hi <= Nyquist"),
                        (_beam({"force_band": [1.0]}), "force_band must be a pair [lo, hi]"),
                        (_beam({"force_band": [1.2, 1.8], "duration": 1.0}),
                         "force_band contains no spectral line"),
                        (_beam({"force_rms": 0.0}), "force_rms must be positive"),
                        ({"peaks": {"band": [0.5, 300.0, 400.0]}}, "band must be a pair [lo, hi]"),
                        ({"peaks": {"band": [0.5]}}, "band must be a pair [lo, hi]"),
                        ({**_beam({"duration": 1.0}), "ssi": {"orders": [2, 4, 200]}},
                         "ssi.orders for beam A: max order 200 exceeds "
                         "block_rows * channels = 100"),
                        ({"beams": [{"beam_id": "A", "support": "CC", "n_elements": 1}]},
                         "beam A has no measurement channels"),
                        ({**_beam({"duration": 1.0}), "n_modes": 30},
                         "beam A has 20 FE modes, fewer than n_modes = 30")]
        for doc, message in out_of_range:
            with pytest.raises(ValueError, match=re.escape(message)):
                CampaignConfig.from_dict(doc)
        wrong_type = [({"runs": "3"}, "'runs' must be an integer"),
                      ({"runs": True}, "'runs' must be an integer"),
                      ({"beams": 5}, "'beams' must be a list"),
                      ({"noise_levels": 0.5}, "'noise_levels' must be a list"),
                      ({"noise_levels": [0.5, "1"]}, "'noise_levels[1]' must be a finite number"),
                      ({"pairing": {"f_window": "0.1"}},
                       "'pairing.f_window' must be a finite number"),
                      ({"estimator": {"segments": 9.0}}, "'estimator.segments' must be an integer"),
                      ({"ssi": {"detrend": 1}}, "'ssi.detrend' must be a boolean"),
                      ({"ssi": {"orders": [2, "4"]}}, "'ssi.orders[1]' must be an integer"),
                      ({"beams": [{"beam_id": "X", "support": "CF", "span": "1"}]},
                       "'beams[0].span' must be a finite number"),
                      ({"noise_levels": [math.nan]}, "'noise_levels[0]' must be a finite number"),
                      ({"peaks": {"prominence_db": math.nan}},
                       "'peaks.prominence_db' must be a finite number"),
                      ({"ssi": {"freq_rel": math.nan}}, "'ssi.freq_rel' must be a finite number"),
                      ({"pairing": {"f_window": math.inf}},
                       "'pairing.f_window' must be a finite number"),
                      ({"beams": [{"beam_id": "X", "support": "CF",
                                   "force_band": [1.0, -math.inf]}]},
                       "'beams[0].force_band[1]' must be a finite number")]
        for doc, message in wrong_type:
            with pytest.raises(ValueError, match=re.escape(f"config key {message}")):
                CampaignConfig.from_dict(doc)
        ok = CampaignConfig.from_dict({"runs": 3, "pairing": {"mac_threshold": 1},
                                       "ssi": {"orders": None}})
        assert (ok.runs, ok.pairing.mac_threshold, ok.ssi.orders) == (3, 1, None)

    @pytest.mark.parametrize("beam", default_beams(), ids=lambda b: b.beam_id)
    def test_record_outlasts_fundamental_decay(self, beam):
        """The record is at least 1 / (f1 zeta) long, 4.9 s for CF's 8.2 Hz."""
        f1 = fe_reference(beam, 5).reference_frequencies[0]
        assert beam.duration >= 1.0 / (f1 * beam.damping_ratio)

    @pytest.mark.parametrize("name", ["dt", "duration"])
    @pytest.mark.parametrize("value", [0.0, math.inf, math.nan])
    def test_beam_timing_positive_and_finite(self, name, value):
        """A Python caller's non-finite ``dt`` or ``duration`` is named, as a
        config's is by its JSON check."""
        with pytest.raises(ValueError, match=f"^{name} must be positive and finite$"):
            BeamConfig("A", "CF", **{name: value})

    def test_beam_config_round_trip(self):
        bc = BeamConfig("demo", "SS", duration=2.0, force_rms=0.5)
        doc = small_config(beams=(bc,)).to_dict()
        assert doc["beams"][0]["force_band"] == [1.0, 1500.0]
        assert CampaignConfig.from_dict(doc).beams == (bc,)

    def test_force_band_list_is_the_tuple_form(self):
        """A list force band from Python code loads, hashes and encodes as
        the tuple form, so both share one FE reference."""
        listed = BeamConfig("A", "CF", force_band=[1.0, 1500.0])
        tupled = BeamConfig("A", "CF", force_band=(1.0, 1500.0))
        assert listed.force_band == (1.0, 1500.0)
        assert listed == tupled and hash(listed) == hash(tupled)
        assert _JSON.encode(listed) == _JSON.encode(tupled)
        assert fe_reference(listed, 5) is fe_reference(tupled, 5)

    def test_encoded_keys_are_the_fields(self):
        """The JSON object of every config class holds its fields, in order."""
        config = small_config(ssi=SsiOptions(orders=(4, 8)))
        doc = json.loads(_JSON.encode(config))
        assert list(doc) == [f.name for f in fields(CampaignConfig)]
        for key in ("pairing", "estimator", "peaks", "ssi"):
            assert list(doc[key]) == [f.name for f in fields(getattr(config, key))], key
        assert list(doc["beams"][0]) == [f.name for f in fields(BeamConfig)]
        assert vars(config).keys() == {f.name for f in fields(CampaignConfig)}


class TestFeReference:
    def test_solved_once_per_beam_and_mode_count(self):
        bc = BeamConfig("memo", "SS", duration=1.0)
        assert fe_reference(bc, 5) is fe_reference(bc, 5)
        assert fe_reference(bc, 3) is not fe_reference(bc, 5)
        assert fe_reference(bc, 3).reference_frequencies.size == 3
        with pytest.raises(TypeError):  # one way to write each cache key
            fe_reference(bc, n_modes=5)

    def test_reference_arrays_read_only(self):
        ref = fe_reference(BeamConfig("CF", "CF"), 5)
        for values in (ref.reference_frequencies, ref.reference_shapes):
            assert not values.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                values[0] = 0.0

    def test_loaded_config_simulates_without_solving(self, monkeypatch):
        """Loading a config solves every beam; simulating reuses those solutions."""
        config = CampaignConfig.from_dict({"beams": [
            {"beam_id": "CF", "support": "CF", "duration": 1.0},
            {"beam_id": "CS", "support": "CS", "duration": 1.0}]})

        def no_solve(*args):
            raise AssertionError("simulate_beams solved a beam again")

        monkeypatch.setattr("omabench.harness.modal_analysis", no_solve)
        artifacts = simulate_beams(config)
        assert sorted(artifacts) == ["CF", "CS"]
        assert artifacts["CF"].modal is fe_reference(config.beams[0], 5).modal


@pytest.fixture(scope="module")
def config():
    return small_config(noise_levels=(0.0, 2.0), methods=("PP", "FDD", "SSI"))


@pytest.fixture(scope="module")
def outdir(cf_campaign, beam_artifacts, tmp_path_factory):
    out = tmp_path_factory.mktemp("tables")
    summarize_and_tables(cf_campaign, out, artifacts=beam_artifacts)
    return out


class TestRunSingle:
    def test_clean_run_pairs_everything(self, cf, config):
        """At NL = 0 every method pairs all five modes with MAC >= 0.99."""
        result = run_single(cf, config, 0, 0)
        assert result.snr_db is None
        for name in config.methods:
            for outcome in result.methods[name].modes:
                assert outcome.identified
                assert outcome.mac >= 0.99

    def test_harsh_noise_drops_pp_mode_one(self, cf, config):
        """At NL = 2.0 peak picking loses the fundamental."""
        result = run_single(cf, config, 1, 0)
        outcome = result.methods["PP"].modes[0]
        assert not outcome.identified
        assert outcome.frequency is None
        assert outcome.rel_err_pct is None
        assert 0.0 <= outcome.mac <= 1.0

    def test_snr_reported_per_channel(self, cf, config):
        result = run_single(cf, config, 1, 0)
        assert result.snr_db is not None
        assert len(result.snr_db) == cf.clean_record.n_channels
        for db in result.snr_db:
            assert db == pytest.approx(-6.02, abs=0.3)

    def test_identifier_errors_recorded(self, cf, config, monkeypatch):
        """Numerical errors become failed results; the other methods still run."""
        def broken(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr("omabench.harness.ssi_identify", broken)
        result = run_single(cf, config, 1, 0)
        ssi = result.methods["SSI"]
        assert ssi.failed
        assert ssi.notes == ("failed: LinAlgError: SVD did not converge",)
        assert not any(o.identified for o in ssi.modes)
        assert not result.methods["PP"].failed

    def test_plain_value_errors_propagate(self, cf, config, monkeypatch):
        """A plain ValueError, such as numpy's broadcast error, is a
        programming error: it leaves run_single and a pooled campaign."""
        def broken(*args, **kwargs):
            return np.ones(3) + np.ones(4)

        monkeypatch.setattr("omabench.harness.ssi_identify", broken)
        with pytest.raises(ValueError, match="broadcast"):
            run_single(cf, config, 1, 0)
        with pytest.raises(ValueError, match="broadcast"):
            run_campaign(small_config(methods=("SSI",)), jobs=2, artifacts={"CF": cf})

    def test_short_record_is_an_identification_error(self, cf, config):
        """Each method files a record too short for it as IdentificationError."""
        rec = MultiChannelRecord(cf.clean_record.sample_rate, cf.clean_record.data[:, :51])
        for name, result in identify_record(rec, cf, config).items():
            assert result.failed
            assert result.notes[0].startswith("failed: IdentificationError: "), name

    def test_overflowing_spectra_are_an_identification_error(self, cf):
        """A finite record whose segment spectra overflow when squared fails
        PP and FDD alike with IdentificationError; PP used to return no modes
        and no note, FDD a LinAlgError."""
        data = np.random.default_rng(5).standard_normal(cf.clean_record.data.shape) * 1e300
        rec = MultiChannelRecord(cf.clean_record.sample_rate, data)
        results = identify_record(rec, cf, small_config(methods=("PP", "FDD")))
        for name, result in results.items():
            assert result.failed, name
            assert result.notes == ("failed: IdentificationError: auto-spectra are not "
                                    "finite: the record's spectra overflow when squared",)

    def test_programming_errors_propagate(self, cf, config, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("bad call")

        monkeypatch.setattr("omabench.harness.ssi_identify", broken)
        with pytest.raises(TypeError):
            run_single(cf, config, 1, 0)

    @pytest.mark.parametrize("beam_id", ["CF", "CC"])
    def test_band_limited_csd_changes_no_result(self, beam_artifacts, noisy_record,
                                                monkeypatch, beam_id):
        """With the search band cut to 300 Hz, PP and FDD score as on the
        whole-grid CSD, though CC's modes 4 and 5 (464 and 696 Hz) lie above
        the band and only their shape_at reads reach the stored lines."""
        art = beam_artifacts[beam_id]
        config = small_config(beams=(BeamConfig(beam_id, beam_id),), methods=("PP", "FDD"),
                              peaks=PeakOptions(band=(0.5, 300.0)))
        rec = noisy_record(beam_id, 0.5)
        stored = []

        def band_csd(record, options, f_max):
            stored.append(csd_matrix(record, options, f_max))
            return stored[-1]

        monkeypatch.setattr("omabench.harness.csd_matrix", band_csd)
        band = identify_record(rec, art, config)
        monkeypatch.setattr("omabench.harness.csd_matrix",
                            lambda record, options, f_max: csd_matrix(record, options))
        assert band == identify_record(rec, art, config)
        f_max = max(300.0, art.reference_frequencies.max())
        assert stored[0].values.shape[0] == np.searchsorted(stored[0].frequencies, f_max) + 2

    def test_unpaired_shape_hook_gets_the_pairing_window(self, cf, noisy_record):
        """A 1e-9 window pairs no mode.  SSI's hook reads swept poles within
        that window, so finds none and scores 0.0; PP and FDD read the line
        nearest the reference frequency, whatever the window."""
        config = small_config(methods=("PP", "FDD", "SSI"),
                              pairing=PairingOptions(f_window=1e-9))
        methods = identify_record(noisy_record("CF", 0.5), cf, config)
        for name, result in methods.items():
            assert not result.failed and not any(o.identified for o in result.modes)
            macs = [o.mac for o in result.modes]
            assert all(m == 0.0 for m in macs) if name == "SSI" else all(m > 0.0 for m in macs)

    def test_unpaired_modes_read_in_one_call(self, cf, noisy_record, monkeypatch):
        """PP and FDD each read their shapes twice per record: once at the
        peaks, and once at every unpaired reference frequency, in mode order."""
        config = small_config(methods=("PP", "FDD"), pairing=PairingOptions(f_window=1e-9))
        reads = {"pp_shape_at": [], "fdd_shape_at": []}
        for name, calls in reads.items():
            def counted(*args, _read=getattr(freqdom, name), _calls=calls):
                _calls.append(list(args[-1]))
                return _read(*args)
            monkeypatch.setattr(freqdom, name, counted)
        methods = identify_record(noisy_record("CF", 0.5), cf, config)
        assert not any(o.identified for r in methods.values() for o in r.modes)
        for calls in reads.values():
            assert len(calls) == 2
            assert calls[1] == cf.reference_frequencies.tolist()

    def test_deterministic(self, cf, config):
        a = run_single(cf, config, 1, 3)
        b = run_single(cf, config, 1, 3)
        assert a.snr_db == b.snr_db
        for name in config.methods:
            ma, mb = a.methods[name], b.methods[name]
            assert ma.identified_frequencies == mb.identified_frequencies
            for x, y in zip(ma.modes, mb.modes):
                assert x == y


class TestRunCampaign:
    def test_single_cell_report(self):
        report = run_campaign(small_config())
        assert len(report.results) == 1
        r = report.results[0]
        assert (r.beam_id, r.noise_level, r.run_index) == ("CF", 0.05, 0)
        assert report.failure_counts == {}

    def test_short_record_fails_each_method(self):
        """A record too short for the Welch plan and for SSI files one
        failure per method; the shared CSD does not abort the campaign."""
        report = run_campaign(small_config(beams=(BeamConfig("CF", "CF", duration=0.005),),
                                           methods=("PP", "FDD", "SSI")))
        assert report.failure_counts == {"PP": 1, "FDD": 1, "SSI": 1}

    def test_noise_free_level_collapses_to_one_run(self):
        """NL = 0 is deterministic, so extra runs would only repeat it."""
        report = run_campaign(small_config(noise_levels=(0.0,), runs=5))
        assert len(report.results) == 1

    def test_run_grid_counts(self, cf_campaign):
        for nl_index, level in enumerate(CAMPAIGN_LEVELS):
            runs = cf_campaign.runs_for("CF", nl_index)
            assert len(runs) == (1 if level == 0 else 20)
            assert all(r.noise_level == level for r in runs)

    def test_no_failures_recorded(self, cf_campaign):
        assert cf_campaign.failure_counts == {}

    def test_pool_capped_at_core_count(self, monkeypatch):
        """campaign_pool starts at most one worker per core.  A stand-in
        executor records the worker count, so no process is started."""
        counts = []
        monkeypatch.setattr(harness, "ProcessPoolExecutor",
                            lambda max_workers, **kw: counts.append(max_workers))
        cfg = small_config()
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        for jobs in (1, 2, 3, 100_000):
            campaign_pool(cfg, {}, jobs)
        monkeypatch.setattr(os, "cpu_count", lambda: None)  # unknown: one worker
        campaign_pool(cfg, {}, 4)
        assert counts == [1, 2, 2, 2, 1]


class TestReportStatistics:
    def test_mode_one_mean_mac_degrades_monotonically(self, cf_campaign):
        """PP mode-1 mean MAC never climbs as noise grows (0.01 slack)."""
        stats = cf_campaign.mac_statistics()["CF"]["PP"][0]
        means = [stats[nl]["mean"] for nl in range(len(CAMPAIGN_LEVELS))]
        for lo, hi in zip(means[1:], means[:-1]):
            assert lo <= hi + 0.01
        assert means[0] == pytest.approx(1.0, abs=1e-6)
        assert means[-1] < 0.95

    def test_higher_modes_robust_at_harsh_noise(self, cf_campaign):
        """PP modes 3-5 keep their minimum MAC at 0.95 even at NL = 2.0."""
        stats = cf_campaign.mac_statistics()["CF"]["PP"]
        top = len(CAMPAIGN_LEVELS) - 1
        for k in (2, 3, 4):
            assert stats[k][top]["min"] >= 0.95

    def test_statistics_bounds(self, cf_campaign):
        """min <= mean, std >= 0 and every MAC cell sits in [0, 1]."""
        stats = cf_campaign.mac_statistics()
        for per_method in stats.values():
            for per_mode in per_method.values():
                for per_level in per_mode:
                    for cell in per_level.values():
                        assert 0.0 <= cell["min"] <= cell["mean"] <= 1.0
                        assert cell["std"] >= 0.0

    def test_statistics_computed_once(self, cf_campaign):
        """The tables and report.json of one emission share one computation."""
        assert cf_campaign.mac_statistics() is cf_campaign.mac_statistics()

    def test_statistics_recomputable_from_runs(self, cf_campaign):
        """Published statistics equal a direct recomputation from the runs."""
        stats = cf_campaign.mac_statistics()["CF"]["PP"][1]
        for nl_index in (1, 4, 7):
            macs = [r.methods["PP"].modes[1].mac
                    for r in cf_campaign.runs_for("CF", nl_index)]
            assert stats[nl_index]["min"] == float(np.min(macs))
            assert stats[nl_index]["mean"] == float(np.mean(macs))
            assert stats[nl_index]["std"] == float(np.std(macs))

    def test_worst_run_selection_rule(self, cf_campaign):
        """The worst run minimizes the per-run minimum PP MAC over modes."""
        nl_index = len(CAMPAIGN_LEVELS) - 1
        worst = cf_campaign.worst_run("CF", nl_index, "PP")
        floor = min(o.mac for o in worst.methods["PP"].modes)
        for r in cf_campaign.runs_for("CF", nl_index):
            assert floor <= min(o.mac for o in r.methods["PP"].modes)

    def test_hand_built_report_ties_and_level_order(self, cf_campaign):
        """Two runs with the same minimum MAC resolve to the lower run_index,
        and the statistics keep the config's level order whatever the
        order of the results."""
        nl_index = len(CAMPAIGN_LEVELS) - 1
        low, high = cf_campaign.runs_for("CF", nl_index)[2:4]
        high = replace(high, methods={**high.methods, "PP": low.methods["PP"]})
        tied = replace(cf_campaign, results=(high, low))
        assert (high.run_index, low.run_index) == (3, 2)
        assert tied.worst_run("CF", nl_index, "PP") is low
        stats = cf_campaign.mac_statistics()["CF"]
        backward = replace(cf_campaign, results=cf_campaign.results[::-1])
        for name, per_mode in backward.mac_statistics()["CF"].items():
            for k, per_level in enumerate(per_mode):
                assert list(per_level) == list(range(len(CAMPAIGN_LEVELS)))
                assert [c["min"] for c in per_level.values()] == \
                    [c["min"] for c in stats[name][k].values()]

    def test_missing_cell_raises(self, cf_campaign):
        with pytest.raises(ValueError):
            cf_campaign.worst_run("CF", 99, "PP")

    def test_mode_one_never_sole_survivor(self, cf_campaign):
        """No method's worst run keeps only the fundamental at NL >= 0.5."""
        for nl_index, level in enumerate(CAMPAIGN_LEVELS):
            if level < 0.5:
                continue
            for method in ("PP", "FDD", "SSI"):
                worst = cf_campaign.worst_run("CF", nl_index, method)
                outcomes = worst.methods[method].modes
                if outcomes[0].identified:
                    assert any(o.identified for o in outcomes[1:])

    def test_json_round_trip(self, cf_campaign, tmp_path):
        path = tmp_path / "report.json"
        cf_campaign.to_json(path)
        back = BenchmarkReport.from_json(path)
        assert back.config == cf_campaign.config
        assert back.failure_counts == cf_campaign.failure_counts
        assert len(back.results) == len(cf_campaign.results)
        assert back.mac_statistics() == cf_campaign.mac_statistics()
        for a, b in zip(back.results, cf_campaign.results):
            assert a == b

    @pytest.mark.parametrize("n_results", [None, 0])
    def test_json_layout(self, cf_campaign, tmp_path, n_results):
        """The indented header, then one line per result; parses as the indented document."""
        report = replace(cf_campaign, results=cf_campaign.results[:n_results])
        path = tmp_path / "report.json"
        report.to_json(path)
        head = {"schema_version": 1, "config": report.config.to_dict(),
                "reference": report.reference, "failure_counts": report.failure_counts,
                "mac_statistics": report.mac_statistics()}
        oracle = {**head, "results": [asdict(r) for r in report.results]}
        text = path.read_text(encoding="utf-8")
        doc = json.loads(text)
        assert doc == json.loads(json.dumps(oracle, indent=1))
        assert list(doc) == list(oracle)
        header = json.dumps(head, indent=1).removesuffix("\n}") + ',\n "results": [\n'
        assert text.startswith(header)
        lines = text[len(header):].splitlines()
        assert [json.loads(line.removesuffix(",")) for line in lines[:-2]] == doc["results"]
        assert lines[-2:] == [" ]", "}"] and text.endswith("}\n")

    def test_json_special_values(self, cf_campaign, tmp_path):
        """Failure notes, non-ASCII text and infinite SNRs read back unchanged."""
        run = cf_campaign.results[0]
        failed = MethodResult(True, ("failed: LinAlgError: \u00b5 \u2014 \"quoted\"\n",), (),
                              (ModeOutcome(False, None, 0.0, None, None),) * 5)
        odd = replace(run, snr_db=(math.inf, -math.inf, None),
                      methods={**run.methods, "SSI": failed})
        path = tmp_path / "report.json"
        replace(cf_campaign, results=(odd,)).to_json(path)
        back = BenchmarkReport.from_json(path)
        assert back.results == (odd,)
        assert back.failure_counts == {"SSI": 1}

    def test_json_result_keys_are_the_fields(self):
        outcome = ModeOutcome(True, 8.2, 0.99, 0.1, (1.0, 0.5))
        run = RunResult("CF", 0.5, 0, 0, (6.0,),
                        {"PP": MethodResult(False, (), (8.2,), (outcome,))})
        doc = json.loads(_JSON.encode(run))
        assert list(doc) == [f.name for f in fields(RunResult)]
        assert list(doc["methods"]["PP"]) == [f.name for f in fields(MethodResult)]
        assert list(doc["methods"]["PP"]["modes"][0]) == [f.name for f in fields(ModeOutcome)]

    @pytest.mark.parametrize("enabled", [True, False])
    def test_from_json_restores_collector(self, cf_campaign, tmp_path, enabled):
        """Reading pauses the cyclic collector and leaves it as it found it."""
        good, broken = tmp_path / "report.json", tmp_path / "broken.json"
        cf_campaign.to_json(good)
        broken.write_text(good.read_text(encoding="utf-8")[:1000], encoding="utf-8")
        was_enabled = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            BenchmarkReport.from_json(good)
            assert gc.isenabled() is enabled
            with pytest.raises(ValueError):
                BenchmarkReport.from_json(broken)
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was_enabled else gc.disable)()


class TestTables:
    def _freq_rows(self, outdir, method):
        rows = {}
        with open(os.path.join(outdir, "table_freq_CF.csv")) as fh:
            header = fh.readline().strip().split(",")
            assert header[:3] == ["noise_level", "snr_db", "method"]
            for line in fh:
                cells = line.strip().split(",")
                if cells[2] == method:
                    rows[float(cells[0])] = cells[3:]
        return rows

    def test_expected_files_written(self, outdir):
        names = {"report.json", "config_resolved.json", "table_freq_CF.csv",
                 "table_mac_CF.csv", "table_err.csv"}
        for level in CAMPAIGN_LEVELS:
            tag = repr(float(level))
            names.add(f"anpsd_CF_{tag}.csv")
            for k in range(1, 6):
                names.add(f"modeshape_CF_{k}_{tag}.csv")
        have = set(os.listdir(outdir))
        assert names <= have
        for name in names:
            assert os.path.getsize(os.path.join(outdir, name)) > 0

    def test_anpsd_curve_is_the_one_pp_picked_on(self, outdir, cf_campaign, noisy_record):
        """Each cell's ANPSD file holds, value for value, the curve PP picked
        its peaks on: the ANPSD of the worst run's CSD auto-spectra."""
        for nl, level in enumerate(CAMPAIGN_LEVELS):
            run = cf_campaign.worst_run("CF", nl, "PP").run_index
            g = csd_matrix(noisy_record("CF", level, run), cf_campaign.config.estimator)
            curve = anpsd_from_densities(g.frequencies, g.auto_spectra)
            rows = np.loadtxt(os.path.join(outdir, f"anpsd_CF_{level!r}.csv"),
                              delimiter=",", skiprows=1)
            assert np.array_equal(rows[:, 0], curve.frequencies)
            assert np.array_equal(rows[:, 1], curve.values)

    def test_freq_table_clean_row_has_no_dashes(self, outdir):
        rows = self._freq_rows(outdir, "PP")
        assert all(c != "-" for c in rows[0.0])

    def test_freq_table_values_at_low_noise(self, outdir, cf):
        """PP mode-1 cells hold frequencies near 8.15 Hz for NL <= 0.2."""
        rows = self._freq_rows(outdir, "PP")
        f1 = cf.reference_frequencies[0]
        for level in (0.05, 0.10, 0.20):
            cell = rows[level][0]
            assert cell != "-"
            assert abs(float(cell) - f1) <= 0.05 * f1

    @pytest.mark.xfail(reason="automated peak selection holds the PP "
                       "fundamental into the mid noise levels that the "
                       "reported tables already dash out", strict=True)
    def test_freq_table_dashes_at_high_noise(self, outdir):
        rows = self._freq_rows(outdir, "PP")
        for level in (0.50, 0.75, 1.00, 2.00):
            assert rows[level][0] == "-"

    def test_error_table_small_for_upper_modes(self, outdir):
        """Worst-run PP/SSI errors for modes 2-5 stay at or below 3%."""
        with open(os.path.join(outdir, "table_err.csv")) as fh:
            assert fh.readline().strip() == "beam,method,mode,mean_rel_err_pct"
            for line in fh:
                beam, method, mode, err = line.strip().split(",")
                if method in ("PP", "SSI") and int(mode) >= 2:
                    assert err != "-"
                    assert float(err) <= 3.0

    def test_mac_table_min_le_mean(self, outdir):
        with open(os.path.join(outdir, "table_mac_CF.csv")) as fh:
            header = fh.readline().strip().split(",")
            i_min, i_mean = header.index("mac_min"), header.index("mac_mean")
            for line in fh:
                cells = line.strip().split(",")
                assert float(cells[i_min]) <= float(cells[i_mean]) + 1e-12

    def test_clean_only_report_has_zero_dashes(self, beam_artifacts, tmp_path):
        report = run_campaign(small_config(noise_levels=(0.0,),
                                           methods=("PP", "FDD", "SSI")))
        out = tmp_path / "clean"
        summarize_and_tables(report, out, artifacts=beam_artifacts)
        with open(out / "table_freq_CF.csv") as fh:
            fh.readline()
            for line in fh:
                assert "-" not in line.strip().split(",")[3:]

    def test_pooled_curves_byte_identical(self, beam_artifacts, tmp_path):
        """Writing the ANPSD curves in a campaign pool writes the files, and
        lists the paths, that the serial table stage does."""
        cfg = small_config(beams=(BeamConfig("CF", "CF"), BeamConfig("CC", "CC")),
                           noise_levels=(0.5, 2.0), runs=2, methods=("PP", "FDD"))
        arts = {b: beam_artifacts[b] for b in ("CF", "CC")}
        report = run_campaign(cfg, artifacts=arts)
        serial = summarize_and_tables(report, tmp_path / "serial", arts)
        with campaign_pool(cfg, arts, 2) as pool:
            pooled = summarize_and_tables(report, tmp_path / "pooled", arts, pool)
        names = [os.path.basename(p) for p in serial]
        assert [os.path.basename(p) for p in pooled] == names
        assert sum(n.startswith("anpsd_") for n in names) == 4
        assert sorted(os.listdir(tmp_path / "pooled")) == sorted(names)
        for name in names:
            assert filecmp.cmp(tmp_path / "serial" / name, tmp_path / "pooled" / name,
                               shallow=False), name

    @pytest.mark.parametrize("pooled", [False, True], ids=["serial", "pooled"])
    def test_unwritable_curve_raises(self, beam_artifacts, tmp_path, pooled):
        """A curve that cannot be written raises out of the table stage,
        from the serial map and from a pool worker alike, after the tables."""
        cfg = small_config(noise_levels=(0.5,))
        arts = {"CF": beam_artifacts["CF"]}
        report = run_campaign(cfg, artifacts=arts)
        out = tmp_path / "out"
        (out / "anpsd_CF_0.5.csv").mkdir(parents=True)
        with campaign_pool(cfg, arts, 2) if pooled else nullcontext() as pool:
            with pytest.raises(IsADirectoryError):
                summarize_and_tables(report, out, arts, pool)
        assert (out / "table_err.csv").is_file()

    def test_rerun_byte_identical(self, cf_campaign, beam_artifacts, outdir,
                                  tmp_path):
        """A second emission of the same report reproduces every byte."""
        again = tmp_path / "again"
        summarize_and_tables(cf_campaign, again, artifacts=beam_artifacts)
        names = sorted(os.listdir(outdir))
        assert names == sorted(os.listdir(again))
        for name in names:
            assert filecmp.cmp(os.path.join(outdir, name),
                               os.path.join(again, name), shallow=False), name
