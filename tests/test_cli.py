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

from omabench import cli, harness
from omabench.cli import DEFAULT_SEED, resolve_jobs, run_cli
from omabench.beam import modal_analysis
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


def cli_env(**overrides) -> dict:
    """The test process's environment with ``src`` on the path, updated by
    ``overrides``; a ``None`` value removes that variable."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath(src), env.get("PYTHONPATH")) if p)
    for key, value in overrides.items():
        if value is None:
            env.pop(key, None)
        else:
            env[key] = value
    return env


# Beams that cannot serve a campaign: no measurement channel; fewer FE modes than n_modes.
NO_CHANNEL_CONFIG = {"runs": 1, "noise_levels": [0.5], "beams": [
    {"beam_id": "A", "support": "CC", "n_elements": 1, "duration": 1.0}]}
FEW_MODES_CONFIG = {"runs": 1, "noise_levels": [0.5], "n_modes": 30, "methods": ["PP"],
                    "beams": [{"beam_id": "CF", "support": "CF", "duration": 1.0}]}
TWO_BEAM_CONFIG = {"runs": 1, "noise_levels": [0.5], "methods": ["PP"], "beams": [
    {"beam_id": "CF", "support": "CF", "duration": 1.0},
    {"beam_id": "SS", "support": "SS", "duration": 1.0}]}


def in_place(change):
    """A report edit that applies ``change`` to the document and returns it."""
    return lambda doc: (change(doc), doc)[1]


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

    def test_numerical_failures_exit_two(self, cf_record_npz, tmp_path, capsys):
        missing = str(tmp_path / "missing.csv")
        assert run_cli(["identify", "--in", missing, "--method", "pp",
                        "--beam", "CF", "--out", str(tmp_path / "o.csv")]) == 2
        for modes in ("-3", "0", "30"):
            assert run_cli(["identify", "--in", str(cf_record_npz), "--method", "pp",
                            "--beam", "CF", "--out", str(tmp_path / "o.csv"),
                            "--modes", modes]) == 2, modes
        bad_time = tmp_path / "bad_time.csv"
        for text in ("time,a\n0.0,1.0\n0.0,2.0\n",
                     "time,a\n0.0,1.0\n0.1,2.0\n0.5,3.0\n0.6,1.0\n"):
            bad_time.write_text(text)
            assert run_cli(["corrupt", "--in", str(bad_time), "--nl", "0.5",
                            "--out", str(tmp_path / "x.csv")]) == 2, text
        assert not (tmp_path / "x.csv").exists()
        bad_cfg = tmp_path / "bad.json"
        for doc in ({"schema_version": "none"}, {"runz": 3},
                    {"estimator": {"segmentz": 9}},
                    {"beams": [{"beam_id": "X", "support": "CF", "spam": 1.0}]},
                    {"runs": "3"}, {"beams": 5}, {"pairing": {"f_window": 1.5}},
                    {"ssi": {"mac_min": 1.5}}, {"ssi": {"freq_rel": -0.01}},
                    {"ssi": {"orders": [20, 20]}}, {"ssi": {"block_rows": 1}},
                    {"noise_levels": [0.5, 0.5]},
                    {"methods": ["pp", "PP"]},
                    {"beams": [{"beam_id": "A", "support": "CF", "n_elements": 0}]},
                    {"beams": [{"beam_id": "A", "support": "CF", "force_band": [1.0, 6000.0]}]},
                    {"beams": [{"beam_id": "A", "support": "CF", "force_band": [1500.0, 1.0]}]},
                    {"beams": [{"beam_id": "A", "support": "CF", "force_band": [1.0]}]},
                    {"beams": [{"beam_id": "A", "support": "CF", "force_rms": 0.0}]},
                    {"peaks": {"band": [0.5, 300.0, 400.0]}}, {"peaks": {"band": [0.5]}},
                    {"noise_levels": [float("nan")]},
                    {"peaks": {"prominence_db": float("nan")},
                     "ssi": {"freq_rel": float("nan")}},
                    {"runs": 1, "noise_levels": [0.5], "methods": ["SSI"],
                     "beams": [{"beam_id": "CF", "support": "CF", "duration": 1.0}],
                     "ssi": {"orders": [2, 4, 200]}},
                    NO_CHANNEL_CONFIG, FEW_MODES_CONFIG):
            bad_cfg.write_text(json.dumps(doc))
            assert run_cli(["bench", "--config", str(bad_cfg)]) == 2, doc
        bad_cfg.write_text(json.dumps({}))
        assert run_cli(["bench", "--config", str(bad_cfg), "--runs", "0"]) == 2
        err = capsys.readouterr().err
        assert "runs must be >= 1" in err
        assert "unknown config key 'runz'" in err
        assert "unknown config key 'beams[0].spam'" in err
        assert "config key 'runs' must be an integer" in err
        assert "config key 'beams' must be a list" in err
        assert "f_window must lie in (0, 1)" in err
        assert "mac_min must lie in (0, 1]" in err
        assert "freq_rel and damping_abs must be positive" in err
        assert "orders must be distinct" in err
        assert "block_rows must be >= 2" in err
        assert "noise levels must be distinct" in err
        assert "methods must be distinct" in err
        assert "ssi.orders for beam CF: max order 200 exceeds" in err
        assert "n_elements must be >= 1" in err
        assert "force_band must satisfy 0 <= lo < hi <= Nyquist (5000 Hz)" in err
        assert "force_band must be a pair [lo, hi]" in err
        assert "bench failed: band must be a pair [lo, hi]" in err
        assert "force_rms must be positive" in err
        assert "n_modes must be >= 1" in err
        assert "beam CF has 20 FE modes, fewer than n_modes = 30" in err
        assert "beam A has no measurement channels" in err
        assert "record CSV time column must increase" in err
        assert "record CSV time steps must be uniform" in err
        assert "config key 'noise_levels[0]' must be a finite number" in err
        assert "config key 'peaks.prominence_db' must be a finite number" in err
        simulate, corrupt = ["simulate", "--beam", "CF"], ["corrupt", "--in", str(cf_record_npz)]
        duration, dt = "duration must be positive and finite", "dt must be positive and finite"
        level = "noise level must be >= 0 and finite"
        # Finite durations whose sample count overflows or passes the bound;
        # both fail before anything is allocated.
        steps = "duration * sample_rate must be below 100000000 samples"
        for argv, message in ((simulate + ["--duration", "inf"], duration),
                              (simulate + ["--duration", "nan"], duration),
                              (simulate + ["--duration", "1e305"], steps + " (got inf)"),
                              (simulate + ["--duration", "1e5"], steps + " (got 1e+09)"),
                              (simulate + ["--dt", "nan"], dt), (simulate + ["--dt", "inf"], dt),
                              (corrupt + ["--nl", "inf"], level),
                              (corrupt + ["--nl", "nan"], level)):
            assert run_cli(argv + ["--out", str(tmp_path / "nf.npz")]) == 2, argv
            assert message in capsys.readouterr().err, argv
        assert not (tmp_path / "nf.npz").exists()

    def test_programming_errors_propagate(self, tmp_path, monkeypatch):
        """A KeyError is a programming error, not a data failure: no exit 2."""
        def broken(path):
            raise KeyError("injected")

        monkeypatch.setattr(cli, "_load_record", broken)
        with pytest.raises(KeyError, match="injected"):
            run_cli(["corrupt", "--in", str(tmp_path / "rec.csv"), "--nl", "0.5",
                     "--out", str(tmp_path / "x.csv")])

    def test_npz_without_an_array_exits_two(self, tmp_path, capsys):
        rec_path = tmp_path / "rec.npz"
        np.savez(rec_path, sample_rate=100.0, data=np.ones((1, 8)))
        assert run_cli(["corrupt", "--in", str(rec_path), "--nl", "0.5",
                        "--out", str(tmp_path / "x.npz")]) == 2
        assert "record npz has no labels array" in capsys.readouterr().err

    def test_module_entry_point(self):
        """``python -m omabench.cli`` runs the command line."""
        proc = subprocess.run([sys.executable, "-m", "omabench.cli", "--help"],
                              capture_output=True, text=True, env=cli_env(), timeout=120)
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

    def test_needs_a_channel_not_n_modes_modes(self, tmp_path, capsys):
        """A record needs a measurement channel only: a 1- or 2-element CF
        beam, with 2 or 4 FE modes, simulates; a 1-element CC beam has no
        free vertical DOF and fails."""
        for elements, channels in (("1", 1), ("2", 2)):
            out = tmp_path / f"e{elements}.npz"
            assert run_cli(["simulate", "--beam", "CF", "--elements", elements,
                            "--duration", "0.2", "--out", str(out)]) == 0
            assert MultiChannelRecord.from_npz(out).n_channels == channels
        assert run_cli(["simulate", "--beam", "CC", "--elements", "1",
                        "--duration", "0.2", "--out", str(tmp_path / "cc.npz")]) == 2
        assert "beam CC has no measurement channels" in capsys.readouterr().err

    def test_half_step_duration_runs_on_the_force_grid(self, tmp_path, capsys):
        """0.10155 s at 0.3 ms is a half step: the force record's 339 samples
        are the simulated grid."""
        out = tmp_path / "odd.npz"
        assert run_cli(["simulate", "--beam", "CF", "--dt", "0.0003",
                        "--duration", "0.10155", "--out", str(out)]) == 0
        assert "10 channels x 339 samples" in capsys.readouterr().out
        assert MultiChannelRecord.from_npz(out).n_samples == 339


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

    def test_zero_channel_exits_zero(self, tmp_path, capsys):
        """A channel with no signal gets no noise and no SNR; the printed mean
        is over the channels that received noise."""
        rec_path, out_path = tmp_path / "zero.csv", tmp_path / "noisy.csv"
        rec_path.write_text("time,a,b\n0.0,1.0,0.0\n0.1,2.0,0.0\n0.2,3.0,0.0\n0.3,1.0,0.0\n")
        assert run_cli(["corrupt", "--in", str(rec_path), "--nl", "0.5",
                        "--out", str(out_path)]) == 0
        assert "(nominal 6.02 dB, realized mean " in capsys.readouterr().out
        np.testing.assert_array_equal(MultiChannelRecord.from_csv(out_path).data[1], 0.0)

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

    def test_channel_count_mismatch_is_caller_error(self, tmp_path, capsys):
        """A record of another mesh is rejected before any identifier runs."""
        rec_path = tmp_path / "cf20.npz"
        assert run_cli(["simulate", "--beam", "CF", "--elements", "20", "--duration", "0.3",
                        "--out", str(rec_path)]) == 0
        capsys.readouterr()
        assert run_cli(["identify", "--in", str(rec_path), "--method", "pp",
                        "--beam", "CF", "--out", str(tmp_path / "m.csv")]) == 2
        err = capsys.readouterr().err
        assert "record has 20 channels but beam CF has 10" in err
        assert not (tmp_path / "m.csv").exists()

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

    def test_half_step_duration_fills_out(self, tmp_path, capsys):
        """A beam whose duration is a half step at its dt loads and runs."""
        cfg = tmp_path / "odd.json"
        cfg.write_text(json.dumps({
            "runs": 1, "noise_levels": [0.5], "methods": ["PP"],
            "peaks": {"band": [0.5, 700.0]},
            "beams": [{"beam_id": "CF", "support": "CF", "dt": 0.0006,
                       "duration": 0.5031, "force_band": [1.0, 800.0]}]}))
        out = tmp_path / "out"
        assert run_cli(["bench", "--config", str(cfg), "--jobs", "1",
                        "--out", str(out)]) == 0
        capsys.readouterr()
        expected = [name.replace("0.2", "0.5") for name in self.EXPECTED]
        assert sorted(p.name for p in out.iterdir()) == sorted(expected)

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

    def test_bytes_independent_of_blas_environment(self, tmp_path):
        """bench writes the same bytes with the BLAS thread variables unset
        as with them set to 1: importing omabench pins them itself."""
        config = tmp_path / "tiny.json"
        config.write_text(json.dumps({"runs": 1, "noise_levels": [0.5], "beams": [
            {"beam_id": "CF", "support": "CF", "duration": 2.0}]}))
        blas = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        outputs = []
        for name, value in (("unset", None), ("pinned", "1")):
            cwd = tmp_path / name
            cwd.mkdir()
            proc = subprocess.run([sys.executable, "-m", "omabench.cli", "bench", "--config",
                                   str(config), "--out", "b", "--jobs", "1"],
                                  cwd=cwd, capture_output=True, text=True, timeout=600,
                                  env=cli_env(**dict.fromkeys(blas, value)))
            assert proc.returncode == 0, proc.stderr
            outputs.append(cwd / "b")
        names = sorted(p.name for p in outputs[0].iterdir())
        assert names == sorted(p.name for p in outputs[1].iterdir())
        for name in names:
            assert filecmp.cmp(outputs[0] / name, outputs[1] / name, shallow=False), name

    def test_unusable_output_dir_exits_before_simulating(self, bench_out, tmp_path,
                                                          monkeypatch, capsys):
        """--out naming an existing file fails before any beam is simulated."""
        _, _, cfg_path = bench_out

        def simulate_beams(config):
            raise AssertionError("simulated before checking the output directory")

        monkeypatch.setattr(cli, "simulate_beams", simulate_beams)
        taken = tmp_path / "taken"
        taken.write_text("not a directory")
        assert run_cli(["bench", "--config", str(cfg_path), "--out", str(taken)]) == 2
        assert "File exists" in capsys.readouterr().err

    @pytest.mark.parametrize("doc, message", [
        (NO_CHANNEL_CONFIG, "beam A has no measurement channels"),
        (FEW_MODES_CONFIG, "beam CF has 20 FE modes, fewer than n_modes = 30")],
        ids=["no_channel", "few_modes"])
    def test_unusable_beam_exits_before_creating_out(self, doc, message, tmp_path, capsys):
        """A beam that cannot serve the campaign fails at config load, so
        bench writes nothing, not even the output directory."""
        config = tmp_path / "bad.json"
        config.write_text(json.dumps(doc))
        out = tmp_path / "D"
        assert run_cli(["bench", "--config", str(config), "--out", str(out)]) == 2
        assert not out.exists()
        assert message in capsys.readouterr().err

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

    @pytest.mark.parametrize("edit, message", [
        (in_place(lambda doc: doc["config"].update(n_modes=6)),
         "report result 0 does not fit its config: PP has 5 modes, not n_modes = 6"),
        (in_place(lambda doc: [r["methods"].pop("PP") for r in doc["results"]]),
         "report result 0 does not fit its config: methods [] are not the config's ['PP']"),
        (in_place(lambda doc: doc["results"][1].pop("snr_db")),
         "report key 'results[1].snr_db' is missing"),
        (in_place(lambda doc: doc["results"][1].update(beam_id="SS")),
         "report result 1 does not fit its config: beam 'SS' is not a config beam"),
        (in_place(lambda doc: doc["results"][0].update(nl_index=1)),
         "report result 0 does not fit its config: nl_index 1 is not an index"),
        (in_place(lambda doc: doc["results"].clear()), "no runs for beam CF at level index 0"),
        (lambda doc: [], "a report must be an object"),
        (in_place(lambda doc: doc.update(results={})), "report key 'results' must be a list"),
        (in_place(lambda doc: doc["results"].append("run")),
         "report key 'results[2]' must be an object"),
        (in_place(lambda doc: doc["results"][1].update(methods="PP")),
         "report key 'results[1].methods' must be an object"),
        (in_place(lambda doc: doc["results"][1]["methods"].update(PP=[])),
         "report key 'results[1].methods.PP' must be an object"),
        (in_place(lambda doc: doc["results"][1]["methods"]["PP"]["modes"].insert(0, "miss")),
         "report key 'results[1].methods.PP.modes[0]' must be an object"),
        (in_place(lambda doc: [o.update(shape=o["shape"][:3]) for r in doc["results"]
                               for o in r["methods"]["PP"]["modes"] if o["shape"]]),
         "report result 0 does not fit its config: PP mode 1 shape has 3 entries, "
         "not one per channel of beam CF (10)"),
        (in_place(lambda doc: doc["results"][1]["methods"]["PP"].update(notes=5)),
         "report key 'results[1].methods.PP.notes' must be a list"),
        (in_place(lambda doc: doc["results"][1]["methods"]["PP"].update(notes="ab")),
         "report key 'results[1].methods.PP.notes' must be a list"),
        (in_place(lambda doc: doc["results"][1]["methods"]["PP"].update(
            identified_frequencies=50.0)),
         "report key 'results[1].methods.PP.identified_frequencies' must be a list"),
        (in_place(lambda doc: doc["results"][1]["methods"]["PP"].update(modes={})),
         "report key 'results[1].methods.PP.modes' must be a list"),
        (in_place(lambda doc: doc["results"][1]["methods"]["PP"]["modes"][2].update(shape=5)),
         "report key 'results[1].methods.PP.modes[2].shape' must be a list"),
        (in_place(lambda doc: doc["results"][1].update(snr_db="xyz")),
         "report key 'results[1].snr_db' must be a list"),
        (in_place(lambda doc: doc["results"][1]["methods"]["PP"]["modes"][2].update(mac="x")),
         "report key 'results[1].methods.PP.modes[2].mac' must be a finite number"),
        (in_place(lambda doc: doc["results"][1]["methods"]["PP"]["modes"][0].update(
            identified="yes")),
         "report key 'results[1].methods.PP.modes[0].identified' must be a boolean"),
        (in_place(lambda doc: doc["results"][0]["methods"]["PP"]["modes"][4].update(
            frequency="x")),
         "report key 'results[0].methods.PP.modes[4].frequency' must be a finite number"),
        (in_place(lambda doc: doc["results"][1]["methods"]["PP"].update(failed="no")),
         "report key 'results[1].methods.PP.failed' must be a boolean"),
        (in_place(lambda doc: doc["results"][1].update(noise_level=9.0)),
         "report result 1 does not fit its config: noise_level 9.0 is not the config's "
         "level 0.2"),
        (in_place(lambda doc: doc["results"][1].update(run_index=99)),
         "report result 1 does not fit its config: run_index 99 is not an index of the "
         "2 runs at 0.2"),
        (in_place(lambda doc: doc["results"][0].update(run_index=1.0)),
         "report key 'results[0].run_index' must be an integer"),
        (in_place(lambda doc: doc["results"][0].update(nl_index=0.0)),
         "report key 'results[0].nl_index' must be an integer"),
        (in_place(lambda doc: doc["results"].append(doc["results"][0])),
         "report result 2 repeats the beam, level and run of result 0"),
        (in_place(lambda doc: doc["results"][1]["methods"]["PP"]["modes"][2].update(
            shape=["a"] * 10)),
         "report key 'results[1].methods.PP.modes[2].shape[0]' must be a finite number"),
        (in_place(lambda doc: doc["results"][1]["methods"]["PP"]["identified_frequencies"]
                  .insert(0, "x")),
         "report key 'results[1].methods.PP.identified_frequencies[0]' must be a finite number"),
        (in_place(lambda doc: doc["results"][1]["snr_db"].__setitem__(3, "x")),
         "report key 'results[1].snr_db[3]' must be a number"),
        (in_place(lambda doc: doc["results"][1]["methods"]["PP"]["modes"][2].update(
            shape=[0.5] * 9 + [float("inf")])),
         "report key 'results[1].methods.PP.modes[2].shape[9]' must be a finite number"),
        (in_place(lambda doc: doc["results"][1]["methods"]["PP"]["notes"].insert(0, 5)),
         "report key 'results[1].methods.PP.notes[0]' must be a string"),
        (in_place(lambda doc: doc.update(schema_version=99)),
         "unsupported report schema_version 99")],
        ids=["n_modes", "method", "snr_db", "beam", "nl_index", "no_runs", "not_object",
             "results_not_list", "result_not_object", "methods_not_object",
             "method_not_object", "outcome_not_object", "short_shapes", "notes_number",
             "notes_string", "frequencies_number", "modes_object", "shape_number",
             "snr_db_string", "mac_string", "identified_string", "frequency_string",
             "failed_string", "noise_level", "run_index", "run_index_float", "nl_index_float",
             "repeated_run", "shape_strings", "frequency_entry_string", "snr_db_entry_string",
             "shape_entry_infinite", "notes_entry_number", "schema_99"])
    def test_report_disagreeing_with_config_exits_before_out(self, bench_out, tmp_path,
                                                            edit, message, capsys):
        """A stored report whose results do not fit its config, that lacks a
        key or that holds a value of the wrong JSON type, exits 2 naming the
        problem and writes nothing."""
        _, outdir, _ = bench_out
        doc = edit(json.loads((outdir / "report.json").read_text()))
        source, target = tmp_path / "edited.json", tmp_path / "out"
        source.write_text(json.dumps(doc))
        assert run_cli(["report", "--in", str(source), "--out", str(target)]) == 2
        assert message in capsys.readouterr().err
        assert not target.exists()

    @pytest.mark.parametrize("edit", [
        lambda doc: doc.pop("reference"),
        lambda doc: doc["reference"]["CF"].update(frequencies=[1.0] * 5)],
        ids=["removed", "edited"])
    def test_stored_reference_is_not_read(self, bench_out, tmp_path, edit, capsys):
        """report writes the FE reference of the config's beams, whatever the
        stored report holds under ``reference``."""
        _, outdir, _ = bench_out
        doc = json.loads((outdir / "report.json").read_text())
        edit(doc)
        source, target = tmp_path / "edited.json", tmp_path / "out"
        source.write_text(json.dumps(doc))
        assert run_cli(["report", "--in", str(source), "--out", str(target)]) == 0
        capsys.readouterr()
        assert filecmp.cmp(outdir / "report.json", target / "report.json", shallow=False)

    def test_interrupted_rewrite_keeps_input(self, bench_out, tmp_path, monkeypatch, capsys):
        """report with no --out rewrites its input; a write that fails
        partway leaves the input's bytes and no temporary file behind."""
        _, outdir, _ = bench_out
        folder = tmp_path / "inplace"
        folder.mkdir()
        source = folder / "report.json"
        original = (outdir / "report.json").read_bytes()
        source.write_bytes(original)
        encode = json.JSONEncoder.encode
        calls = []

        def failing_encode(self, o):
            calls.append(o)
            if len(calls) == 3:  # after the header: the report is partly written
                raise OSError("disk full")
            return encode(self, o)

        monkeypatch.setattr(json.JSONEncoder, "encode", failing_encode)
        assert run_cli(["report", "--in", str(source)]) == 2
        assert "disk full" in capsys.readouterr().err
        assert source.read_bytes() == original
        assert sorted(p.name for p in folder.iterdir()) == ["report.json"]


class TestFeSolves:
    def test_each_beam_solved_once_per_use(self, tmp_path, monkeypatch, capsys):
        """A command solves the FE model of each beam its config names once,
        at load, and reads that solution wherever it needs the beam: bench
        and report load two beams, identify one."""
        solves = []

        def counted(*args):
            solves.append(args)
            return modal_analysis(*args)

        monkeypatch.setattr("omabench.harness.modal_analysis", counted)
        config = tmp_path / "two.json"
        config.write_text(json.dumps(TWO_BEAM_CONFIG))

        def count(*argv):  # the solves of one command, as in its own process
            harness.fe_reference.cache_clear()
            solves.clear()
            assert run_cli(list(argv)) == 0
            return len(solves)

        bench, report = tmp_path / "bench", tmp_path / "report"
        record, modes = tmp_path / "cf.npz", tmp_path / "modes.csv"
        assert count("bench", "--config", str(config), "--out", str(bench), "--jobs", "1") == 2
        assert count("report", "--in", str(bench / "report.json"), "--out", str(report)) == 2
        assert count("simulate", "--beam", "CF", "--duration", "1.0", "--out", str(record)) == 1
        assert count("identify", "--in", str(record), "--method", "pp", "--beam", "CF",
                     "--out", str(modes)) == 1
        capsys.readouterr()


class TestPublicNames:
    @pytest.mark.parametrize("module", ["beam", "cli", "dsp", "freqdom", "harness",
                                        "metrics", "noise", "ssi"])
    def test_all_names_resolve(self, module):
        mod = importlib.import_module(f"omabench.{module}")
        assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


class TestImportFootprint:
    def test_import_leaves_out_scipy_signal_optimize_stats(self):
        """``import omabench`` loads numpy and ``scipy.linalg`` only: every
        command process and forked worker would otherwise also carry
        ``scipy.signal``'s hundreds of modules."""
        code = ("import sys, omabench, omabench.cli; print(sorted("
                "{'scipy.signal', 'scipy.optimize', 'scipy.stats'} & set(sys.modules)))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=cli_env(), timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


class TestJobs:
    def test_explicit_wins(self):
        assert resolve_jobs(3) == 3

    def test_default_is_core_count(self):
        assert resolve_jobs(None) == (os.cpu_count() or 1)

    def test_floor_of_one(self):
        assert resolve_jobs(0) == 1

    def test_default_seed_documented(self):
        assert DEFAULT_SEED == 42
