"""Monte Carlo noise-robustness campaign over beams x noise levels x runs.

The harness simulates one noise-free record per beam, corrupts it with
freshly seeded noise for every (level, run) cell, identifies modes with the
requested methods, pairs them against the FE reference and aggregates MAC
statistics and frequency tables.  Every random stream is derived from the
master seed, so a campaign is reproducible run by run and byte by byte.
"""

from __future__ import annotations

import json
import math
import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, is_dataclass, replace
from functools import cached_property

import numpy as np

from .beam import (BeamModel, BeamSection, GlobalSystem, Material, ModalSolution,
                   SUPPORTS, assemble_model, modal_analysis, transient_response)
from .dsp import (MultiChannelRecord, SpectralEstimatorOptions, band_limited_force,
                  csd_matrix, derive_seed, psd)
from .freqdom import (IdentifiedModeSet, PeakOptions, anpsd_from_densities,
                      fdd_identify, pp_identify, unit_normalize, write_curve_csv)
from .metrics import mac, pair_to_reference, relative_error
from .noise import NoiseSpec, corrupt, noise_level_to_snr_db
from .ssi import HankelOptions, StabilityTolerances, ssi_identify

__all__ = [
    "SCHEMA_VERSION",
    "DEFAULT_SEED",
    "DEFAULT_NOISE_LEVELS",
    "BeamConfig",
    "CampaignConfig",
    "ModeOutcome",
    "MethodResult",
    "RunResult",
    "BenchmarkReport",
    "BeamArtifacts",
    "default_beams",
    "fe_reference",
    "simulate_beam",
    "simulate_beams",
    "run_single",
    "run_campaign",
    "summarize_and_tables",
]

SCHEMA_VERSION = 1
DEFAULT_SEED = 42
DEFAULT_NOISE_LEVELS = (0.05, 0.10, 0.20, 0.50, 0.75, 1.00, 2.00)
METHOD_NAMES = ("PP", "FDD", "SSI")


@dataclass(frozen=True)
class BeamConfig:
    """One benchmark beam plus its excitation settings."""

    beam_id: str
    support: str
    span: float = 1.0
    n_elements: int = 10
    elastic_modulus: float = 2.0e11
    density: float = 7850.0
    poisson_ratio: float = 0.3
    width: float = 0.01
    height: float = 0.01
    damping_ratio: float = 0.025
    dt: float = 1.0e-4
    duration: float = 5.0
    force_band: tuple[float, float] = (1.0, 1500.0)
    force_rms: float = 0.2

    def __post_init__(self):
        if not self.beam_id:
            raise ValueError("beam_id must be non-empty")
        if self.support not in SUPPORTS:
            raise ValueError(f"support must be one of {SUPPORTS}")
        if self.dt <= 0 or self.duration <= 0:
            raise ValueError("dt and duration must be positive")

    def model(self) -> BeamModel:
        return BeamModel(Material(self.elastic_modulus, self.density, self.poisson_ratio),
                         BeamSection(self.width, self.height),
                         self.span, self.n_elements, self.support, self.damping_ratio)


def default_beams() -> tuple[BeamConfig, ...]:
    """The four standard 1 m steel beams (CF, SS, CS, CC)."""
    return tuple(BeamConfig(s, s) for s in SUPPORTS)


def _campaign_estimator() -> SpectralEstimatorOptions:
    """Welch averaging for the Monte Carlo runs.

    A single full-record segment keeps the finest frequency grid but its
    noise cross-spectra never average down, which wrecks shape estimates
    at the harshest noise levels.  Nine half-overlapped Hann segments of a
    5 s record still resolve well-separated beam modes while cutting the
    estimator variance enough for stable peak/shape extraction at 0 dB.
    """
    return SpectralEstimatorOptions(window="hann", segments=9, overlap=0.5)


def _campaign_peaks() -> PeakOptions:
    """Peak selection tuned for averaged spectra.

    With nine-segment averaging the noise floor is smooth, so a 4.5 dB
    prominence keeps every physical peak that survives the noise while
    rejecting floor wiggle; the interactive single-record default of 6 dB
    would drop real peaks whose prominence is eroded by heavy noise.
    """
    return PeakOptions(prominence_db=4.5)


@dataclass(frozen=True)
class CampaignConfig:
    """Fully resolved campaign settings (see :func:`CampaignConfig.from_dict`)."""

    beams: tuple[BeamConfig, ...] = field(default_factory=default_beams)
    noise_levels: tuple[float, ...] = DEFAULT_NOISE_LEVELS
    runs: int = 20
    methods: tuple[str, ...] = METHOD_NAMES
    master_seed: int = DEFAULT_SEED
    n_modes: int = 5
    f_window: float = 0.05
    mac_threshold: float = 0.95
    estimator: SpectralEstimatorOptions = field(default_factory=_campaign_estimator)
    peaks: PeakOptions = field(default_factory=_campaign_peaks)
    hankel: HankelOptions = field(default_factory=HankelOptions)
    stability: StabilityTolerances = field(default_factory=StabilityTolerances)
    output_dir: str = "bench_out"

    def __post_init__(self):
        if not self.beams:
            raise ValueError("at least one beam is required")
        if self.runs < 1:
            raise ValueError("runs must be >= 1")
        if any(lv < 0 for lv in self.noise_levels) or not self.noise_levels:
            raise ValueError("noise levels must be >= 0 and non-empty")
        methods = tuple(m.upper() for m in self.methods)
        if not methods or any(m not in METHOD_NAMES for m in methods):
            raise ValueError(f"methods must be a non-empty subset of {METHOD_NAMES}")
        object.__setattr__(self, "methods", methods)
        ids = [b.beam_id for b in self.beams]
        if len(set(ids)) != len(ids):
            raise ValueError("beam ids must be unique")
        if self.n_modes < 1:
            raise ValueError("n_modes must be >= 1")

    def to_dict(self) -> dict:
        doc = _to_json(self)
        for key, members in _SECTIONS.items():
            doc[key] = {}
            for name in members:
                part = doc.pop(name)
                doc[key].update(part if isinstance(part, dict) else {name: part})
        return {"schema_version": SCHEMA_VERSION, **{key: doc[key] for key in _KEY_ORDER}}

    @classmethod
    def from_dict(cls, d: dict) -> "CampaignConfig":
        """Build a config from a (possibly partial) JSON dictionary.

        Omitted keys, and omitted entries of a section, keep the campaign
        defaults; an unknown key raises ``ValueError``.
        """
        doc = dict(d)
        version = doc.pop("schema_version", SCHEMA_VERSION)
        if version != SCHEMA_VERSION:
            raise ValueError(f"unsupported config schema_version {version}")
        for key in doc:
            if key not in _KEY_ORDER:
                raise ValueError(f"unknown config key {key!r}")
        base = cls()
        for key, members in _SECTIONS.items():
            section = dict(_object(doc.pop(key, {}), key))
            for name in members:
                value = getattr(base, name)
                if is_dataclass(value):
                    doc[name] = {f.name: section.pop(f.name)
                                 for f in fields(value) if f.name in section}
                elif name in section:
                    doc[name] = section.pop(name)
            if section:
                raise ValueError(f"unknown config key {key + '.' + next(iter(section))!r}")
        if "beams" in doc:
            doc["beams"] = tuple(_beam_from_json(b, f"beams[{i}].")
                                 for i, b in enumerate(doc["beams"]))
        return _merge(base, doc)


# Top-level keys of a campaign config's JSON form, in output order.  A key in
# _SECTIONS groups the fields it lists, a dataclass field contributing its
# own fields; every other key holds the field of the same name.
_KEY_ORDER = ("master_seed", "runs", "noise_levels", "methods", "n_modes", "pairing",
              "estimator", "peaks", "ssi", "output_dir", "beams")
_SECTIONS = {"pairing": ("f_window", "mac_threshold"), "ssi": ("hankel", "stability")}


def _to_json(value):
    """JSON form: dataclasses and dicts become objects, tuples (of one kind) lists."""
    if isinstance(value, tuple):
        return [_to_json(v) for v in value] if value and is_dataclass(value[0]) else list(value)
    if isinstance(value, dict):
        return {k: _to_json(v) for k, v in value.items()}
    if is_dataclass(value):
        return {f.name: _to_json(getattr(value, f.name)) for f in fields(value)}
    return value


def _object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"config {where!r} must be an object")
    return value


def _merge(base, doc: dict, where: str = ""):
    """``base`` with the fields named in ``doc`` replaced by their JSON values.

    Dataclass fields merge recursively, so a partial section keeps the rest
    of ``base``; lists become tuples; a key that names no field is an error.
    """
    names = {f.name for f in fields(base)}
    changes = {}
    for key, value in doc.items():
        if key not in names:
            raise ValueError(f"unknown config key {where + key!r}")
        current = getattr(base, key)
        if is_dataclass(current):
            value = _merge(current, _object(value, where + key), f"{where}{key}.")
        changes[key] = tuple(value) if isinstance(value, list) else value
    return replace(base, **changes)


def _beam_from_json(doc, where: str) -> BeamConfig:
    """A beam merged over the defaults; ``beam_id`` and ``support`` are required."""
    doc = _object(doc, where[:-1])
    return _merge(BeamConfig(doc.get("beam_id", ""), doc.get("support", "")), doc, where)


@dataclass(frozen=True)
class BeamArtifacts:
    """Cached per-beam objects shared by every run of a campaign."""

    config: BeamConfig
    model: BeamModel
    system: GlobalSystem
    modal: ModalSolution
    reference_frequencies: np.ndarray
    reference_shapes: np.ndarray  # channels x n_modes
    clean_record: MultiChannelRecord | None = None  # None from fe_reference()


def fe_reference(bc: BeamConfig, n_modes: int = 5) -> BeamArtifacts:
    """Assemble and solve one beam and keep its lowest FE modes; no transient."""
    model = bc.model()
    system = assemble_model(model)
    if system.n_channels == 0:
        raise ValueError(f"beam {bc.beam_id} has no measurement channels")
    modal = modal_analysis(model, system)
    n_modes = min(n_modes, modal.n_modes)
    return BeamArtifacts(bc, model, system, modal, modal.frequencies[:n_modes],
                         modal.channel_shapes(system)[:, :n_modes])


def simulate_beam(bc: BeamConfig, master_seed: int, n_modes: int = 5) -> BeamArtifacts:
    """Assemble, solve and simulate one beam with derived excitation seeds.

    Every free vertical DOF is driven by an independent band-limited force;
    all FE modes participate in the response.
    """
    ref = fe_reference(bc, n_modes)
    rate = 1.0 / bc.dt
    force_rows = [band_limited_force(bc.duration, rate, bc.force_band, bc.force_rms,
                                     derive_seed(master_seed, "force", bc.beam_id, label))
                  for label in ref.system.channel_labels]
    forces = MultiChannelRecord(rate, np.vstack(force_rows), ref.system.channel_labels)
    record = transient_response(ref.system, ref.modal, forces, bc.dt, bc.duration)
    return replace(ref, clean_record=record)


def simulate_beams(config: CampaignConfig) -> dict[str, BeamArtifacts]:
    """Every beam of a campaign, simulated once, by beam id."""
    return {bc.beam_id: simulate_beam(bc, config.master_seed, config.n_modes)
            for bc in config.beams}


@dataclass(frozen=True)
class ModeOutcome:
    """Score of one reference mode for one method in one run.

    ``mac`` is always populated: for paired modes it is the pairing MAC, for
    unpaired ones it is a diagnostic MAC of the shape extracted at (or
    nearest to) the reference frequency, and 0.0 when nothing usable exists
    there.  This mirrors how degradation statistics keep falling after a
    mode stops being formally identified.
    """

    identified: bool
    frequency: float | None
    mac: float
    rel_err_pct: float | None
    shape: tuple[float, ...] | None


@dataclass(frozen=True)
class MethodResult:
    modes: tuple[ModeOutcome, ...]
    identified_frequencies: tuple[float, ...]
    notes: tuple[str, ...] = ()
    failed: bool = False


@dataclass(frozen=True)
class RunResult:
    beam_id: str
    noise_level: float
    nl_index: int
    run_index: int
    snr_db: tuple | None
    methods: dict


# Identifiers by method name; PP and FDD share the run's CSD matrix ``g``.
_IDENTIFIERS = {
    "PP": lambda rec, cfg, g: pp_identify(rec, cfg.estimator, cfg.peaks, spectral=g),
    "FDD": lambda rec, cfg, g: fdd_identify(rec, cfg.estimator, cfg.peaks, spectral=g),
    "SSI": lambda rec, cfg, g: ssi_identify(rec, cfg.hankel, cfg.stability),
}


def _score_method(mode_set: IdentifiedModeSet, ref_freqs, ref_shapes,
                  config: CampaignConfig) -> MethodResult:
    """Pair to the reference; score unpaired modes by the set's own shape extractor."""
    pairing = pair_to_reference(mode_set.frequencies, mode_set.shapes, ref_freqs, ref_shapes,
                                config.f_window, config.mac_threshold)
    outcomes = []
    for k, match in enumerate(pairing.matches):
        if match is not None:
            idx, freq, m = match
            shape = mode_set.modes[idx].shape
            outcomes.append(ModeOutcome(True, freq, m,
                                        relative_error(freq, float(ref_freqs[k])),
                                        tuple(float(x) for x in shape)))
        else:
            shape = mode_set.shape_at(float(ref_freqs[k]), config.f_window)
            m = mac(shape, ref_shapes[:, k]) if shape is not None else 0.0
            outcomes.append(ModeOutcome(False, None, m, None, None))
    return MethodResult(tuple(outcomes),
                        tuple(float(f) for f in mode_set.frequencies),
                        mode_set.notes)


def _noisy_record(artifacts: BeamArtifacts, config: CampaignConfig,
                  nl_index: int, run_index: int):
    """The (level, run) cell's corrupted record and its per-channel SNR [dB]."""
    level = config.noise_levels[nl_index]
    if level == 0:
        return artifacts.clean_record, None
    spec = NoiseSpec(level, derive_seed(config.master_seed, "noise",
                                        artifacts.config.beam_id, nl_index, run_index))
    noisy, rep = corrupt(artifacts.clean_record, spec)
    return noisy, rep.snr_db


def run_single(artifacts: BeamArtifacts, config: CampaignConfig,
               nl_index: int, run_index: int) -> RunResult:
    """One corrupt-identify-score pass for a cached beam.

    Numerical and validation errors of an identifier are recorded in the
    result and never abort the run; any other exception propagates.
    """
    noisy, snr_db = _noisy_record(artifacts, config, nl_index, run_index)
    ref_f = artifacts.reference_frequencies
    shared_csd = "PP" in config.methods or "FDD" in config.methods
    spectral = csd_matrix(noisy, config.estimator) if shared_csd else None
    methods: dict[str, MethodResult] = {}
    for name in config.methods:
        try:
            mode_set = _IDENTIFIERS[name](noisy, config, spectral)
            methods[name] = _score_method(mode_set, ref_f, artifacts.reference_shapes, config)
        except (ValueError, np.linalg.LinAlgError) as exc:  # identifier failure: record it
            empty = (ModeOutcome(False, None, 0.0, None, None),) * ref_f.size
            note = f"failed: {type(exc).__name__}: {exc}"
            methods[name] = MethodResult(empty, (), (note,), True)
    return RunResult(artifacts.config.beam_id, config.noise_levels[nl_index], nl_index,
                     run_index, snr_db, methods)


# ---------------------------------------------------------------------------
# campaign orchestration

# (config, artifacts) of the campaign a pool worker serves, set by its initializer.
_WORKER_ARGS: tuple = ()


def _worker_init(config: CampaignConfig, artifacts: dict) -> None:
    global _WORKER_ARGS
    _WORKER_ARGS = (config, artifacts)


def _worker_run(task):
    config, artifacts = _WORKER_ARGS
    beam_id, nl_index, run_index = task
    return run_single(artifacts[beam_id], config, nl_index, run_index)


def _reference_entry(art: BeamArtifacts) -> dict:
    """FE reference modal data of one beam for the report."""
    return {
        "frequencies": art.reference_frequencies.tolist(),
        "channel_shapes": art.reference_shapes.T.tolist(),
        "channel_coords": art.system.channel_coords.tolist(),
        "channel_labels": list(art.system.channel_labels),
    }


@dataclass(frozen=True)
class BenchmarkReport:
    """Everything a campaign produced, JSON round-trippable."""

    config: dict
    reference: dict
    results: tuple[RunResult, ...]
    failure_counts: dict

    def campaign_config(self) -> CampaignConfig:
        return CampaignConfig.from_dict(self.config)

    @cached_property
    def _cells(self) -> dict:
        """Results grouped by (beam_id, nl_index), in report order."""
        cells: dict = {}
        for r in self.results:
            cells.setdefault((r.beam_id, r.nl_index), []).append(r)
        return cells

    def runs_for(self, beam_id: str, nl_index: int) -> list[RunResult]:
        return list(self._cells.get((beam_id, nl_index), ()))

    def worst_run(self, beam_id: str, nl_index: int, method: str = "PP") -> RunResult:
        """Run minimizing the minimum per-mode MAC of ``method`` at this level."""
        runs = self.runs_for(beam_id, nl_index)
        if not runs:
            raise ValueError(f"no runs for beam {beam_id} at level index {nl_index}")
        method = method if method in runs[0].methods else next(iter(runs[0].methods))
        return min(runs, key=lambda r: (min(o.mac for o in r.methods[method].modes),
                                        r.run_index))

    def worst_run_per_beam(self, method: str = "PP") -> dict:
        """Global worst-case pointer per beam: (nl_index, run_index)."""
        out = {}
        for beam_id in {r.beam_id for r in self.results}:
            runs = [r for r in self.results if r.beam_id == beam_id]
            method_eff = method if method in runs[0].methods else next(iter(runs[0].methods))
            worst = min(runs, key=lambda r: (min(o.mac for o in r.methods[method_eff].modes),
                                             r.nl_index, r.run_index))
            out[beam_id] = (worst.nl_index, worst.run_index)
        return out

    def mac_statistics(self) -> dict:
        """min/mean/std of the per-run MAC per (beam, method, mode, level)."""
        stats: dict = {}
        config = self.campaign_config()
        for bc in config.beams:
            per_mode = {name: [{} for _ in range(config.n_modes)] for name in config.methods}
            for nl_index in range(len(config.noise_levels)):
                runs = self.runs_for(bc.beam_id, nl_index)
                for name in config.methods:
                    for k in range(config.n_modes):
                        macs = [r.methods[name].modes[k].mac for r in runs]
                        if macs:
                            per_mode[name][k][nl_index] = {"min": float(np.min(macs)),
                                                           "mean": float(np.mean(macs)),
                                                           "std": float(np.std(macs))}
            stats[bc.beam_id] = per_mode
        return stats

    def to_json(self, path) -> None:
        doc = {
            "schema_version": SCHEMA_VERSION,
            "config": self.config,
            "reference": self.reference,
            "failure_counts": self.failure_counts,
            "mac_statistics": self.mac_statistics(),
            "results": [_run_to_dict(r) for r in self.results],
        }
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")

    @classmethod
    def from_json(cls, path) -> "BenchmarkReport":
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        results = tuple(_run_from_dict(d) for d in doc["results"])
        return cls(doc["config"], doc["reference"], results,
                   doc.get("failure_counts", {}))


def _run_to_dict(r: RunResult) -> dict:
    doc = _to_json(r)
    # A method entry lists its flags first and its per-mode outcomes last.
    doc["methods"] = {name: {k: m[k] for k in ("failed", "notes", "identified_frequencies", "modes")}
                      for name, m in doc["methods"].items()}
    return doc


def _run_from_dict(d: dict) -> RunResult:
    methods = {}
    for name, md in d["methods"].items():
        modes = tuple(ModeOutcome(o["identified"], o["frequency"], o["mac"],
                                  o["rel_err_pct"],
                                  tuple(o["shape"]) if o["shape"] is not None else None)
                      for o in md["modes"])
        methods[name] = MethodResult(modes, tuple(md["identified_frequencies"]),
                                     tuple(md["notes"]), md["failed"])
    snr = d["snr_db"]
    return RunResult(d["beam_id"], d["noise_level"], d["nl_index"], d["run_index"],
                     tuple(snr) if snr is not None else None, methods)


def run_campaign(config: CampaignConfig, jobs: int = 1,
                 artifacts: dict | None = None) -> BenchmarkReport:
    """Execute the full campaign grid and assemble the report.

    ``artifacts`` are the simulated beams (:func:`simulate_beams`), made here
    when not given.  ``jobs > 1`` hands them to worker processes; results
    keep the task order, so the report is independent of completion order.
    """
    if artifacts is None:
        artifacts = simulate_beams(config)
    # (beam, level, run) grid; noise-free levels collapse to a single run.
    tasks = [(bc.beam_id, nl_index, run) for bc in config.beams
             for nl_index, level in enumerate(config.noise_levels)
             for run in range(1 if level == 0 else config.runs)]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs, initializer=_worker_init,
                                 initargs=(config, artifacts)) as pool:
            results = list(pool.map(_worker_run, tasks, chunksize=4))
    else:
        results = [run_single(artifacts[b], config, nl, run) for b, nl, run in tasks]
    reference = {bc.beam_id: _reference_entry(artifacts[bc.beam_id]) for bc in config.beams}
    failure_counts = Counter(name for r in results
                             for name, mr in r.methods.items() if mr.failed)
    return BenchmarkReport(config.to_dict(), reference, tuple(results), dict(failure_counts))


# ---------------------------------------------------------------------------
# table emission

def _fmt(x) -> str:
    """Shortest round-trip decimal for floats; dash for missing cells."""
    if x is None:
        return "-"
    if isinstance(x, float) and math.isinf(x):
        return "inf"
    return repr(float(x))


def _write_csv(path, header: list[str], rows) -> None:
    """Write the header and then every row, cells joined by commas."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for cells in (header, *rows):
            fh.write(",".join(cells) + "\n")


def summarize_and_tables(report: BenchmarkReport, outdir,
                         artifacts: dict | None = None) -> list[str]:
    """Write report.json, the campaign tables and the plot-data CSVs.

    Frequency and mode-shape tables are taken from the worst-case run of
    each (beam, level) cell, selected by the minimum per-mode MAC of the
    first configured method (PP when present).  Returns the written paths.
    """
    config = report.campaign_config()
    os.makedirs(outdir, exist_ok=True)
    written = []

    def path(name):
        p = os.path.join(outdir, name)
        written.append(p)
        return p

    report.to_json(path("report.json"))
    with open(path("config_resolved.json"), "w", encoding="utf-8", newline="\n") as fh:
        json.dump(report.config, fh, indent=1)
        fh.write("\n")

    if artifacts is None:
        artifacts = simulate_beams(config)
    stats = report.mac_statistics()
    methods, modes = config.methods, range(config.n_modes)
    levels = range(len(config.noise_levels))
    tags = [repr(float(level)) for level in config.noise_levels]
    snrs = [_fmt(math.inf if level == 0 else noise_level_to_snr_db(level))
            for level in config.noise_levels]
    # Worst-case run of every (beam, level) cell, shared by all the tables.
    worst = {(bc.beam_id, nl): report.worst_run(bc.beam_id, nl)
             for bc in config.beams for nl in levels}

    for bc in config.beams:
        beam_id = bc.beam_id
        _write_csv(path(f"table_freq_{beam_id}.csv"),
                   ["noise_level", "snr_db", "method"] + [f"mode{k+1}_hz" for k in modes],
                   ([tags[nl], snrs[nl], name] +
                    [_fmt(o.frequency if o.identified else None)
                     for o in worst[beam_id, nl].methods[name].modes]
                    for nl in levels for name in methods))
        _write_csv(path(f"table_mac_{beam_id}.csv"),
                   ["noise_level", "snr_db", "method", "mode",
                    "mac_min", "mac_mean", "mac_std", "mac_worst_run"],
                   ([tags[nl], snrs[nl], name, str(k + 1)] +
                    [_fmt(stats[beam_id][name][k][nl][s]) for s in ("min", "mean", "std")] +
                    [_fmt(worst[beam_id, nl].methods[name].modes[k].mac)]
                    for nl in levels for name in methods for k in modes))

        # Plot data: ANPSD of the worst run per level, reference + identified shapes.
        art = artifacts[beam_id]
        coords = art.system.channel_coords
        for nl in levels:
            wrun = worst[beam_id, nl]
            noisy, _ = _noisy_record(art, config, nl, wrun.run_index)
            curve = anpsd_from_densities(*psd(noisy, config.estimator))
            write_curve_csv(path(f"anpsd_{beam_id}_{tags[nl]}.csv"),
                            curve.frequencies, curve.values)
            for k in modes:
                ref_shape = unit_normalize(art.reference_shapes[:, k])
                shapes = [wrun.methods[name].modes[k].shape for name in methods]
                _write_csv(path(f"modeshape_{beam_id}_{k+1}_{tags[nl]}.csv"),
                           ["x_m", "reference"] + [name.lower() for name in methods],
                           ([repr(float(coords[c])), repr(float(ref_shape[c]))] +
                            [_fmt(shape[c] if shape is not None else None) for shape in shapes]
                            for c in range(coords.size)))

    rows = []
    for bc in config.beams:
        for name in methods:
            for k in modes:
                outcomes = [worst[bc.beam_id, nl].methods[name].modes[k] for nl in levels]
                errs = [o.rel_err_pct for o in outcomes if o.identified]
                rows.append([bc.beam_id, name, str(k + 1),
                             _fmt(float(np.mean(errs)) if errs else None)])
    _write_csv(path("table_err.csv"), ["beam", "method", "mode", "mean_rel_err_pct"], rows)
    return written
