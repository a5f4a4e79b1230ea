"""Seeded generator of a paper-scale schema-1 ``report.json``.

The ``report_full`` workload re-emits tables from this file, so it holds the
full paper grid: 4 beams x 7 noise levels x 100 runs x PP/FDD/SSI.  The
reference section comes from the public ``assemble_model``/``modal_analysis``.
Everything else is drawn from the seed with the statistics of a real
campaign, which ``calibrate.py`` measured and stored in
``calibration.json``, per (beam, level, method):

- each reference mode is identified at the measured hit rate;
- a hit's frequency carries the measured relative error (mean and spread),
  kept inside the pairing window;
- a hit's shape is the reference shape plus the measured Gaussian scatter,
  redrawn until its MAC reaches the threshold, and its MAC is computed from
  the shape written beside it;
- a miss carries the measured diagnostic MAC (0.0 at the measured share);
- the number of ``identified_frequencies`` and the ``notes`` are those of a
  calibration run drawn at random; the frequencies beyond the paired ones
  are spread over the band the calibration run covered.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from omabench.beam import assemble_model, modal_analysis
from omabench.harness import BeamConfig

from checks import F_WINDOW, MAC_THRESHOLD, N_MODES, SUPPORTS

RUNS = 100
METHODS = ("PP", "FDD", "SSI")
CALIBRATION = Path(__file__).resolve().parent / "calibration.json"


def _reference(support: str) -> dict:
    model = BeamConfig(support, support).model()
    system = assemble_model(model)
    modal = modal_analysis(model, system, n_modes=N_MODES)
    shapes = modal.channel_shapes(system)
    return {
        "frequencies": modal.frequencies.tolist(),
        "channel_shapes": shapes.T.tolist(),
        "channel_coords": system.channel_coords.tolist(),
        "channel_labels": list(system.channel_labels),
    }


def _hit_shapes(rng, ref_u: np.ndarray, scatter: float) -> tuple[np.ndarray, np.ndarray]:
    """``RUNS`` unit shapes around ``ref_u`` whose MAC reaches the threshold."""
    shapes = np.empty((RUNS, ref_u.size))
    macs = np.zeros(RUNS)
    todo = np.arange(RUNS)
    while todo.size:
        s = ref_u + rng.standard_normal((todo.size, ref_u.size)) * scatter
        s /= np.linalg.norm(s, axis=1, keepdims=True)
        m = np.minimum((s @ ref_u) ** 2, 1.0)
        shapes[todo], macs[todo] = s, m
        todo = todo[m < MAC_THRESHOLD]
    return shapes, macs


def _method_results(rng, cal: dict, ref_f: np.ndarray, ref_u: np.ndarray) -> list[dict]:
    """One method's results for the ``RUNS`` runs of one (beam, level)."""
    hit = rng.random((RUNS, N_MODES)) < np.array(cal["hit_rate"])
    err = rng.normal(cal["freq_err_mean"], cal["freq_err_sd"], (RUNS, N_MODES))
    freqs = ref_f * (1.0 + np.clip(err, -0.999 * F_WINDOW, 0.999 * F_WINDOW))
    miss_mac = np.clip(rng.normal(cal["miss_mac_mean"], cal["miss_mac_sd"], (RUNS, N_MODES)),
                       0.0, 1.0)
    miss_mac[rng.random((RUNS, N_MODES)) < np.array(cal["miss_mac_zero"])] = 0.0
    hit_shapes = [_hit_shapes(rng, ref_u[k], cal["shape_sd"][k]) for k in range(N_MODES)]
    drawn = rng.integers(len(cal["runs"]), size=RUNS)
    lo, hi = cal["freq_band"]
    out = []
    for run in range(RUNS):
        modes = []
        for k in range(N_MODES):
            if hit[run, k]:
                f = float(freqs[run, k])
                modes.append({"identified": True, "frequency": f,
                              "mac": float(hit_shapes[k][1][run]),
                              "rel_err_pct": float(100.0 * abs(f - ref_f[k]) / ref_f[k]),
                              "shape": hit_shapes[k][0][run].tolist()})
            else:
                modes.append({"identified": False, "frequency": None,
                              "mac": float(miss_mac[run, k]), "rel_err_pct": None,
                              "shape": None})
        n_freqs, notes = cal["runs"][drawn[run]]
        paired = [o["frequency"] for o in modes if o["identified"]]
        extra = rng.uniform(lo, hi, max(0, n_freqs - len(paired))).tolist()
        out.append({"failed": False, "notes": list(notes),
                    "identified_frequencies": sorted(paired + extra), "modes": modes})
    return out


def _level_results(rng, cal: dict, beam_id, nl_index, level, ref, snr_sd_db) -> list[dict]:
    ref_f = np.array(ref["frequencies"])
    ref_u = np.array(ref["channel_shapes"])
    ref_u /= np.linalg.norm(ref_u, axis=1, keepdims=True)
    per_method = {name: _method_results(rng, cal[name], ref_f, ref_u) for name in METHODS}
    snr = -20.0 * np.log10(level) + rng.normal(0.0, snr_sd_db, (RUNS, ref_u.shape[1]))
    return [{"beam_id": beam_id, "noise_level": level, "nl_index": nl_index,
             "run_index": run, "snr_db": snr[run].tolist(),
             "methods": {name: per_method[name][run] for name in METHODS}}
            for run in range(RUNS)]


def generate(path: str, seed: int, levels) -> dict:
    """Write the report to ``path`` and return the campaign config it declares."""
    cal = json.loads(CALIBRATION.read_text(encoding="utf-8"))
    if cal["campaign"]["noise_levels"] != list(levels):
        raise ValueError("calibration.json was measured at other noise levels")
    rng = np.random.default_rng(seed)
    config = {"master_seed": seed, "runs": RUNS, "noise_levels": list(levels),
              "methods": list(METHODS)}
    reference = {b: _reference(b) for b in SUPPORTS}
    results = [r for b in SUPPORTS for nl, level in enumerate(levels)
               for r in _level_results(rng, cal["cells"][b][nl], b, nl, level,
                                       reference[b], cal["snr_sd_db"])]
    doc = {"schema_version": 1, "config": config, "reference": reference,
           "failure_counts": {}, "results": results}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return config
