"""Command-line pipeline tests.

Exit-code contract, the simulate/corrupt/identify round trip, the bench
command against a reduced campaign config, config-file reproducibility and
the jobs resolution rules.
"""

from __future__ import annotations

import filecmp
import importlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from omabench.cli import DEFAULT_SEED, resolve_jobs, run_cli
from omabench.dsp import MultiChannelRecord
from omabench.harness import CampaignConfig, DEFAULT_NOISE_LEVELS, run_single


@pytest.fixture(scope="module")
def cf_record_npz(tmp_path_factory):
    """Noise-free CF record simulated through the CLI, stored losslessly."""
    path = tmp_path_factory.mktemp("sim") / "cf.npz"
    assert run_cli(["simulate", "--beam", "CF", "--out", str(path)]) == 0
    return path


@pytest.fixture(scope="module")
def bench_out(tmp_path_factory):
    """Reduced PP campaign driven through the bench command."""
    root = tmp_path_factory.mktemp("bench")
    config = {
        "beams": [{"beam_id": "CF", "support": "CF"}],
        "noise_levels": [0.2],
        "runs": 2,
        "methods": ["PP"],
        "output_dir": str(root / "out"),
    }
    cfg_path = root / "campaign.json"
    cfg_path.write_text(json.dumps(config))
    code = run_cli(["bench", "--config", str(cfg_path), "--jobs", "1"])
    return code, root / "out", cfg_path


def read_mode_table(path):
    rows = []
    with open(path) as fh:
        header = fh.readline().strip()
        assert header == "mode,reference_hz,frequency_hz,rel_err_pct,mac"
        for line in fh:
            rows.append(line.strip().split(","))
    return rows


class TestExitCodes:
    def test_usage_errors_exit_one(self, capsys):
        assert run_cli([]) == 1
        assert run_cli(["simulate"]) == 1
        assert run_cli(["simulate", "--beam", "XX", "--out", "x.csv"]) == 1
        assert run_cli(["corrupt", "--unknown-flag"]) == 1
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert run_cli(["--help"]) == 0
        assert "simulate" in capsys.readouterr().out

    def test_numerical_failures_exit_two(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.csv")
        assert run_cli(["identify", "--in", missing, "--method", "pp",
                        "--beam", "CF", "--out", str(tmp_path / "o.csv")]) == 2
        bad_cfg = tmp_path / "bad.json"
        for doc in ({"schema_version": "none"}, {"runz": 3},
                    {"estimator": {"segmentz": 9}},
                    {"beams": [{"beam_id": "X", "support": "CF", "spam": 1.0}]},
                    {"runs": "3"}, {"beams": 5}, {"pairing": {"f_window": 1.5}},
                    {"ssi": {"mac_min": 1.5}}, {"ssi": {"freq_rel": -0.01}},
                    {"ssi": {"orders": [20, 20]}}, {"noise_levels": [0.5, 0.5]},
                    {"methods": ["pp", "PP"]}):
            bad_cfg.write_text(json.dumps(doc))
            assert run_cli(["bench", "--config", str(bad_cfg)]) == 2, doc
        err = capsys.readouterr().err
        assert "unknown config key 'runz'" in err
        assert "unknown config key 'beams[0].spam'" in err
        assert "config key 'runs' must be an integer" in err
        assert "config key 'beams' must be a list" in err
        assert "f_window must lie in (0, 1)" in err
        assert "mac_min must lie in (0, 1]" in err
        assert "freq_rel and damping_abs must be positive" in err
        assert "orders must be distinct" in err
        assert "noise levels must be distinct" in err
        assert "methods must be distinct" in err

    def test_module_entry_point(self):
        """``python -m omabench.cli`` runs the command line."""
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.abspath(src), env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-m", "omabench.cli", "--help"],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0
        assert proc.stdout.startswith("usage: omabench")


class TestSimulate:
    def test_default_seed_is_fixed(self, tmp_path, capsys):
        """Two runs without --seed write identical records."""
        a, b = tmp_path / "a.npz", tmp_path / "b.npz"
        assert run_cli(["simulate", "--beam", "SS", "--out", str(a),
                        "--duration", "0.5"]) == 0
        assert run_cli(["simulate", "--beam", "SS", "--out", str(b),
                        "--duration", "0.5"]) == 0
        ra, rb = MultiChannelRecord.from_npz(a), MultiChannelRecord.from_npz(b)
        np.testing.assert_array_equal(ra.data, rb.data)
        capsys.readouterr()

    def test_seed_changes_record(self, tmp_path, capsys):
        a, b = tmp_path / "a.npz", tmp_path / "b.npz"
        run_cli(["simulate", "--beam", "SS", "--out", str(a), "--duration", "0.5"])
        run_cli(["simulate", "--beam", "SS", "--out", str(b), "--duration", "0.5",
                 "--seed", "7"])
        ra, rb = MultiChannelRecord.from_npz(a), MultiChannelRecord.from_npz(b)
        assert np.max(np.abs(ra.data - rb.data)) > 0.0
        capsys.readouterr()

    def test_csv_output_and_channel_count(self, tmp_path, capsys):
        path = tmp_path / "cc.csv"
        assert run_cli(["simulate", "--beam", "CC", "--out", str(path),
                        "--duration", "0.3"]) == 0
        rec = MultiChannelRecord.from_csv(path)
        assert rec.n_channels == 9
        assert rec.sample_rate == 10000.0
        capsys.readouterr()


class TestCorrupt:
    def test_zero_level_identity(self, tmp_path, capsys):
        """corrupt --nl 0 writes a byte-identical copy of the input."""
        rec_path = tmp_path / "rec.csv"
        out_path = tmp_path / "same.csv"
        run_cli(["simulate", "--beam", "CF", "--out", str(rec_path),
                 "--duration", "0.3"])
        assert run_cli(["corrupt", "--in", str(rec_path), "--nl", "0",
                        "--out", str(out_path)]) == 0
        assert filecmp.cmp(rec_path, out_path, shallow=False)
        capsys.readouterr()

    def test_seeded_corruption_deterministic(self, tmp_path, capsys):
        rec_path = tmp_path / "rec.csv"
        run_cli(["simulate", "--beam", "CF", "--out", str(rec_path),
                 "--duration", "0.3"])
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(["corrupt", "--in", str(rec_path), "--nl", "0.5",
                        "--out", str(a)]) == 0
        assert run_cli(["corrupt", "--in", str(rec_path), "--nl", "0.5",
                        "--out", str(b)]) == 0
        assert filecmp.cmp(a, b, shallow=False)
        capsys.readouterr()

    def test_negative_level_exits_two(self, tmp_path, capsys):
        rec_path = tmp_path / "rec.csv"
        run_cli(["simulate", "--beam", "CF", "--out", str(rec_path),
                 "--duration", "0.3"])
        assert run_cli(["corrupt", "--in", str(rec_path), "--nl", "-1",
                        "--out", str(tmp_path / "x.csv")]) == 2
        capsys.readouterr()


class TestIdentify:
    def test_clean_pp_pairs_all_modes(self, cf_record_npz, tmp_path, capsys):
        """PP on the clean CF record fills all five table rows, MAC >= 0.99."""
        out = tmp_path / "modes.csv"
        assert run_cli(["identify", "--in", str(cf_record_npz), "--method", "pp",
                        "--beam", "CF", "--out", str(out)]) == 0
        rows = read_mode_table(out)
        assert len(rows) == 5
        assert [r[0] for r in rows] == ["1", "2", "3", "4", "5"]
        for r in rows:
            assert r[2] != "-"
            assert float(r[4]) >= 0.99
            ref, freq, err = float(r[1]), float(r[2]), float(r[3])
            assert err == pytest.approx(100.0 * abs(freq - ref) / ref, rel=1e-12)
        capsys.readouterr()

    @pytest.mark.xfail(reason="the nine-segment Welch spectrum of one random "
                       "excitation still puts the higher CF PP peaks up to "
                       "8.3 Hz off the reference", strict=True)
    def test_clean_pp_frequencies_within_two_bins(self, cf_record_npz, tmp_path,
                                                  capsys):
        out = tmp_path / "modes.csv"
        run_cli(["identify", "--in", str(cf_record_npz), "--method", "pp",
                 "--beam", "CF", "--out", str(out)])
        capsys.readouterr()
        for r in read_mode_table(out):
            assert r[2] != "-" and abs(float(r[2]) - float(r[1])) <= 0.4

    def test_ssi_method(self, cf_record_npz, tmp_path, capsys):
        out = tmp_path / "modes_ssi.csv"
        assert run_cli(["identify", "--in", str(cf_record_npz), "--method", "ssi",
                        "--beam", "CF", "--out", str(out)]) == 0
        rows = read_mode_table(out)
        assert len(rows) == 5
        for r in rows:
            assert r[2] != "-"
            assert float(r[4]) >= 0.99
        capsys.readouterr()

    def test_reference_needs_no_transient(self, cf_record_npz, tmp_path, monkeypatch,
                                          capsys):
        """The FE reference comes from the modal solution alone."""
        def no_transient(*args, **kwargs):
            raise AssertionError("identify must not simulate the beam")

        monkeypatch.setattr("omabench.harness.transient_response", no_transient)
        out = tmp_path / "modes.csv"
        assert run_cli(["identify", "--in", str(cf_record_npz), "--method", "fdd",
                        "--beam", "CF", "--out", str(out)]) == 0
        assert len(read_mode_table(out)) == 5
        capsys.readouterr()

    @pytest.mark.parametrize("method", ["pp", "fdd", "ssi"])
    def test_reproduces_campaign_cell(self, beam_artifacts, noisy_record, tmp_path,
                                      method, capsys):
        """identify on a campaign record writes that cell's frequencies and MACs."""
        config = CampaignConfig(noise_levels=(0.0,) + DEFAULT_NOISE_LEVELS)
        cell = run_single(beam_artifacts["CF"], config, config.noise_levels.index(0.5), 0)
        rec_path, out = tmp_path / "noisy.npz", tmp_path / "modes.csv"
        noisy_record("CF", 0.5).to_npz(rec_path)
        assert run_cli(["identify", "--in", str(rec_path), "--method", method,
                        "--beam", "CF", "--out", str(out)]) == 0
        capsys.readouterr()
        rows = read_mode_table(out)
        outcomes = cell.methods[method.upper()].modes
        assert len(rows) == len(outcomes)
        for r, o in zip(rows, outcomes):
            if o.identified:
                assert [float(x) for x in r[2:]] == [o.frequency, o.rel_err_pct, o.mac]
            else:
                assert r[2:] == ["-", "-", "-"]

    def test_identifier_failure_reported_once(self, tmp_path, capsys):
        """A record too short for SSI exits 2 with one copy of the message."""
        rec_path = tmp_path / "short.npz"
        assert run_cli(["simulate", "--beam", "CF", "--out", str(rec_path),
                        "--duration", "0.05"]) == 0
        capsys.readouterr()
        assert run_cli(["identify", "--in", str(rec_path), "--method", "ssi",
                        "--beam", "CF", "--out", str(tmp_path / "m.csv")]) == 2
        err = capsys.readouterr().err
        assert err.count("record too short") == 1
        assert err.startswith("omabench: identify failed: ")

    def test_seed_option_removed(self, cf_record_npz, tmp_path, capsys):
        assert run_cli(["identify", "--in", str(cf_record_npz), "--method", "pp",
                        "--beam", "CF", "--out", str(tmp_path / "m.csv"),
                        "--seed", "1"]) == 1
        capsys.readouterr()

    def test_reference_frequencies_reported(self, cf_record_npz, tmp_path,
                                            beam_artifacts, capsys):
        out = tmp_path / "modes.csv"
        run_cli(["identify", "--in", str(cf_record_npz), "--method", "fdd",
                 "--beam", "CF", "--out", str(out)])
        capsys.readouterr()
        rows = read_mode_table(out)
        ref = beam_artifacts["CF"].reference_frequencies
        np.testing.assert_allclose([float(r[1]) for r in rows], ref, rtol=1e-12)


class TestBench:
    EXPECTED = ["report.json", "config_resolved.json", "table_freq_CF.csv",
                "table_mac_CF.csv", "table_err.csv", "anpsd_CF_0.2.csv"] + \
               [f"modeshape_CF_{k}_0.2.csv" for k in range(1, 6)]

    def test_campaign_files_exist(self, bench_out):
        code, outdir, _ = bench_out
        assert code == 0
        for name in self.EXPECTED:
            p = outdir / name
            assert p.exists() and p.stat().st_size > 0, name

    def test_runs_flag_overrides_config(self, bench_out, tmp_path, capsys):
        _, _, cfg_path = bench_out
        out = tmp_path / "short"
        assert run_cli(["bench", "--config", str(cfg_path), "--jobs", "1",
                        "--runs", "1", "--out", str(out)]) == 0
        with open(out / "report.json") as fh:
            doc = json.load(fh)
        assert len(doc["results"]) == 1
        capsys.readouterr()

    def test_resolved_config_reproduces_outputs(self, bench_out, tmp_path,
                                                capsys):
        """Re-running from config_resolved.json recreates every table byte."""
        code, outdir, _ = bench_out
        assert code == 0
        again = tmp_path / "again"
        assert run_cli(["bench", "--config", str(outdir / "config_resolved.json"),
                        "--jobs", "1", "--out", str(again)]) == 0
        capsys.readouterr()
        for name in self.EXPECTED:
            if name.endswith(".json"):
                continue  # embeds output_dir, compared structurally below
            assert filecmp.cmp(outdir / name, again / name, shallow=False), name
        with open(outdir / "report.json") as fh:
            first = json.load(fh)
        with open(again / "report.json") as fh:
            second = json.load(fh)
        assert first["results"] == second["results"]
        assert first["mac_statistics"] == second["mac_statistics"]

    def test_missing_config_exits_two(self, tmp_path, capsys):
        assert run_cli(["bench", "--config", str(tmp_path / "none.json")]) == 2
        capsys.readouterr()


class TestReport:
    def test_reemits_tables(self, bench_out, tmp_path, capsys):
        """Tables, report.json and config_resolved.json come back byte for byte."""
        _, outdir, _ = bench_out
        target = tmp_path / "reemit"
        assert run_cli(["report", "--in", str(outdir / "report.json"),
                        "--out", str(target)]) == 0
        capsys.readouterr()
        for name in TestBench.EXPECTED:
            assert filecmp.cmp(outdir / name, target / name, shallow=False), name

    def test_partial_config_resolved(self, bench_out, tmp_path, capsys):
        """A report whose config is partial re-emits the fully resolved config."""
        _, outdir, _ = bench_out
        partial = {"beams": [{"beam_id": "CF", "support": "CF"}], "noise_levels": [0.2],
                   "runs": 2, "methods": ["PP"]}
        doc = json.loads((outdir / "report.json").read_text())
        doc["config"] = partial
        source = tmp_path / "partial.json"
        source.write_text(json.dumps(doc))
        target = tmp_path / "resolved"
        assert run_cli(["report", "--in", str(source), "--out", str(target)]) == 0
        capsys.readouterr()
        resolved = CampaignConfig.from_dict(partial).to_dict()
        assert json.loads((target / "config_resolved.json").read_text()) == resolved
        assert json.loads((target / "report.json").read_text())["config"] == resolved


class TestPublicNames:
    @pytest.mark.parametrize("module", ["beam", "cli", "dsp", "freqdom", "harness",
                                        "metrics", "noise", "ssi"])
    def test_all_names_resolve(self, module):
        mod = importlib.import_module(f"omabench.{module}")
        assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


class TestJobs:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("OMA_BENCH_JOBS", "7")
        assert resolve_jobs(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("OMA_BENCH_JOBS", "7")
        assert resolve_jobs(None) == 7

    def test_env_invalid_rejected(self, monkeypatch):
        monkeypatch.setenv("OMA_BENCH_JOBS", "many")
        with pytest.raises(ValueError):
            resolve_jobs(None)

    def test_default_is_core_count(self, monkeypatch):
        monkeypatch.delenv("OMA_BENCH_JOBS", raising=False)
        assert resolve_jobs(None) >= 1

    def test_floor_of_one(self):
        assert resolve_jobs(0) == 1

    def test_default_seed_documented(self):
        assert DEFAULT_SEED == 42
