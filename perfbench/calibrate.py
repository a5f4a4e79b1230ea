"""Fit the ``report_full`` input generator to a real omabench campaign.

Usage (from the repository root; takes a few minutes on two cores):

    python3 perfbench/calibrate.py

It runs ``harness.run_campaign`` on the four standard beams at the seven
paper noise levels with PP/FDD/SSI, RUNS runs per level, once for each of
the MASTER_SEEDS: the clean records, and so their quirks, change with the
master seed.  It writes each
report with ``BenchmarkReport.to_json`` to measure its size, and stores in
``perfbench/calibration.json``, per (beam, level, method):

- per reference mode: the hit rate, the mean and standard deviation of the
  signed relative frequency error of the hits, the shape scatter that
  reproduces the hits' mean MAC, and the diagnostic MAC of the misses
  (share of exact zeros, mean and standard deviation of the rest);
- per calibration run: the number of ``identified_frequencies`` and the
  ``notes``, which ``gen_report.py`` resamples;
- the band in which identified frequencies fell.

It also stores the spread of the realized per-channel SNR and the bytes of
the written report per result, from which the paper-scale size follows.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from omabench.harness import CampaignConfig, run_campaign  # noqa: E402

from checks import N_MODES, SUPPORTS, nominal_snr_db  # noqa: E402

PAPER_LEVELS = (0.05, 0.10, 0.20, 0.50, 0.75, 1.00, 2.00)
METHODS = ("PP", "FDD", "SSI")
RUNS = 5
MASTER_SEEDS = (1000, 1001, 1002, 1003)
JOBS = 2
OUT = HERE / "calibration.json"


def shape_scatter(mean_mac: float, n_channels: int) -> float:
    """Per-channel Gaussian scatter of a unit shape that gives this mean MAC.

    For a unit shape plus scatter s on each of n channels, 1 - MAC is about
    (n - 1) s^2 / (1 + (n - 1) s^2) when s is small.
    """
    d = min(max(1.0 - mean_mac, 0.0), 0.5)
    return float(np.sqrt(d / ((n_channels - 1) * (1.0 - d))))


def _method_entry(results, name: str, ref_freqs: list[float], n_channels: int) -> dict:
    modes = [[r.methods[name].modes[k] for r in results] for k in range(N_MODES)]
    entry = {"hit_rate": [], "freq_err_mean": [], "freq_err_sd": [], "shape_sd": [],
             "miss_mac_zero": [], "miss_mac_mean": [], "miss_mac_sd": []}
    for k, outcomes in enumerate(modes):
        hits = [o for o in outcomes if o.identified]
        misses = [o.mac for o in outcomes if not o.identified]
        nonzero = [m for m in misses if m > 0.0]
        fref = ref_freqs[k]
        errs = [(o.frequency - fref) / fref for o in hits]
        entry["hit_rate"].append(len(hits) / len(outcomes))
        entry["freq_err_mean"].append(float(np.mean(errs)) if errs else 0.0)
        entry["freq_err_sd"].append(float(np.std(errs)) if errs else 0.0)
        entry["shape_sd"].append(shape_scatter(float(np.mean([o.mac for o in hits])),
                                               n_channels) if hits else 0.0)
        entry["miss_mac_zero"].append(1.0 - len(nonzero) / len(misses) if misses else 0.0)
        entry["miss_mac_mean"].append(float(np.mean(nonzero)) if nonzero else 0.0)
        entry["miss_mac_sd"].append(float(np.std(nonzero)) if nonzero else 0.0)
    freqs = [f for r in results for f in r.methods[name].identified_frequencies]
    entry["freq_band"] = [min(freqs), max(freqs)] if freqs else [0.0, 0.0]
    entry["runs"] = [[len(r.methods[name].identified_frequencies), list(r.methods[name].notes)]
                     for r in results]
    if any(r.methods[name].failed for r in results):
        raise RuntimeError(f"{name} failed in a calibration run; gen_report.py "
                           "does not model failed methods")
    return entry


def main() -> int:
    campaign = {"runs": RUNS, "noise_levels": list(PAPER_LEVELS), "methods": list(METHODS)}
    work = ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    tmp = work / f"calibration-{os.getpid()}.json"
    reports, report_bytes = [], 0
    try:
        for seed in MASTER_SEEDS:
            cfg = CampaignConfig.from_dict({"master_seed": seed, **campaign})
            reports.append(run_campaign(cfg, jobs=JOBS))
            reports[-1].to_json(tmp)
            report_bytes += tmp.stat().st_size
    finally:
        tmp.unlink(missing_ok=True)
        try:
            work.rmdir()
        except OSError:
            pass
    all_results = [r for rep in reports for r in rep.results]
    snr_dev = [db - nominal_snr_db(r.noise_level) for r in all_results for db in r.snr_db]
    cells = {}
    for b in SUPPORTS:
        ref = reports[0].reference[b]
        n_channels = len(ref["channel_labels"])
        cells[b] = []
        for nl in range(len(PAPER_LEVELS)):
            results = [r for rep in reports for r in rep.runs_for(b, nl)]
            cells[b].append({name: _method_entry(results, name, ref["frequencies"],
                                                 n_channels)
                             for name in METHODS})
    doc = {"campaign": {"master_seeds": list(MASTER_SEEDS), **campaign}, "report_bytes": report_bytes,
           "results": len(all_results), "snr_sd_db": float(np.std(snr_dev)),
           "cells": cells}
    OUT.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"{OUT.name}: {len(all_results)} results, report.json {report_bytes} bytes, "
          f"{report_bytes / len(all_results):.0f} bytes per result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
