"""Monte Carlo noise-robustness campaign over beams x noise levels x runs.

The harness simulates one noise-free record per beam, corrupts it with
freshly seeded noise for every (level, run) cell, identifies modes with the
requested methods, pairs them against the FE reference and aggregates MAC
statistics and frequency tables.  Every random stream is derived from the
master seed, so a campaign is reproducible run by run and byte by byte.
"""

from __future__ import annotations

import gc
import json
import math
import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, is_dataclass, replace
from functools import cache, cached_property

import numpy as np

from .beam import (BeamModel, BeamSection, GlobalSystem, Material, ModalSolution,
                   SUPPORTS, assemble_model, modal_analysis, transient_response)
from .dsp import (MultiChannelRecord, SpectralEstimatorOptions, band_limited_force,
                  csd_matrix, derive_seed)
from .freqdom import (IdentifiedModeSet, PeakOptions, anpsd, fdd_identify, pp_identify,
                      unit_normalize, write_curve_csv)
from .metrics import PairingOptions, mac, pair_to_reference, relative_error
from .noise import NoiseSpec, corrupt, noise_level_to_snr_db
from .ssi import SsiOptions, ssi_identify

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
    "identify_record",
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


@dataclass(frozen=True)
class CampaignConfig:
    """Fully resolved campaign settings (see :func:`CampaignConfig.from_dict`).

    The field order and nesting are those of the JSON form.
    """

    master_seed: int = DEFAULT_SEED
    runs: int = 20
    noise_levels: tuple[float, ...] = DEFAULT_NOISE_LEVELS
    methods: tuple[str, ...] = METHOD_NAMES
    n_modes: int = 5
    pairing: PairingOptions = field(default_factory=PairingOptions)
    estimator: SpectralEstimatorOptions = field(default_factory=SpectralEstimatorOptions)
    peaks: PeakOptions = field(default_factory=PeakOptions)
    ssi: SsiOptions = field(default_factory=SsiOptions)
    output_dir: str = "bench_out"
    beams: tuple[BeamConfig, ...] = field(default_factory=default_beams)

    def __post_init__(self):
        if not self.beams:
            raise ValueError("at least one beam is required")
        if self.runs < 1:
            raise ValueError("runs must be >= 1")
        if any(lv < 0 for lv in self.noise_levels) or not self.noise_levels:
            raise ValueError("noise levels must be >= 0 and non-empty")
        if len(set(self.noise_levels)) != len(self.noise_levels):
            raise ValueError("noise levels must be distinct")
        methods = tuple(m.upper() for m in self.methods)
        if not methods or any(m not in METHOD_NAMES for m in methods):
            raise ValueError(f"methods must be a non-empty subset of {METHOD_NAMES}")
        if len(set(methods)) != len(methods):
            raise ValueError("methods must be distinct")
        object.__setattr__(self, "methods", methods)
        ids = [b.beam_id for b in self.beams]
        if len(set(ids)) != len(ids):
            raise ValueError("beam ids must be unique")
        if self.n_modes < 1:
            raise ValueError("n_modes must be >= 1")

    def to_dict(self) -> dict:
        return {"schema_version": SCHEMA_VERSION, **_to_json(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "CampaignConfig":
        """Build a config from a (possibly partial) JSON dictionary.

        Omitted keys, and omitted entries of a section, keep the campaign
        defaults; an unknown key raises ``ValueError``.
        """
        if not isinstance(d, dict):
            raise ValueError("a config must be a JSON object")
        doc = dict(d)
        version = doc.pop("schema_version", SCHEMA_VERSION)
        if version != SCHEMA_VERSION:
            raise ValueError(f"unsupported config schema_version {version}")
        if isinstance(doc.get("beams"), list):
            doc["beams"] = [_beam_from_json(b, f"beams[{i}].") for i, b in enumerate(doc["beams"])]
        return _merge(cls(), doc)


@cache
def _field_names(cls) -> tuple[str, ...]:
    return tuple(f.name for f in fields(cls))


def _to_json(value):
    """JSON form: dataclasses and dicts become objects, tuples (of one kind) lists."""
    if value is None or isinstance(value, (float, int, str)):
        return value
    if isinstance(value, tuple):
        return [_to_json(v) for v in value] if value and is_dataclass(value[0]) else list(value)
    if isinstance(value, dict):
        return {k: _to_json(v) for k, v in value.items()}
    if is_dataclass(value):
        return {name: _to_json(getattr(value, name)) for name in _field_names(type(value))}
    return value


def _object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"config {where!r} must be an object")
    return value


# JSON value checks by the leading name of a field's annotation.
_JSON_KINDS = {
    "int": ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    "float": ("a number", lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)),
    "bool": ("a boolean", lambda v: isinstance(v, bool)),
    "str": ("a string", lambda v: isinstance(v, str)),
}


def _check_json_type(annotation: str, value, where: str) -> None:
    """Raise ``ValueError`` unless ``value`` is JSON of the annotated field type.

    A ``tuple[X, ...]`` field takes a list, whose items are checked when X
    is a kind above; a ``T | None`` field also takes null.
    """
    if value is None and annotation.endswith(" | None"):
        return
    kind, _, items = annotation.removesuffix(" | None").partition("[")
    if kind == "tuple":
        if not isinstance(value, list):
            raise ValueError(f"config key {where!r} must be a list")
        item_kind = items.split(",")[0]
        if item_kind in _JSON_KINDS:
            for i, item in enumerate(value):
                _check_json_type(item_kind, item, f"{where}[{i}]")
    elif kind in _JSON_KINDS and not _JSON_KINDS[kind][1](value):
        raise ValueError(f"config key {where!r} must be {_JSON_KINDS[kind][0]}")


def _merge(base, doc: dict, where: str = ""):
    """``base`` with the fields named in ``doc`` replaced by their JSON values.

    Dataclass fields merge recursively, so a partial section keeps the rest
    of ``base``; lists become tuples; a key that names no field, or a value
    of the wrong JSON type, is an error.  Errors name a field by its path
    after ``where``.
    """
    annotations = {f.name: f.type for f in fields(base)}
    changes = {}
    for key, value in doc.items():
        if key not in annotations:
            raise ValueError(f"unknown config key {where + key!r}")
        current = getattr(base, key)
        path = where + key
        if is_dataclass(current):
            value = _merge(current, _object(value, path), path + ".")
        else:
            _check_json_type(annotations[key], value, path)
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


def fe_reference(bc: BeamConfig, n_modes: int = CampaignConfig.n_modes) -> BeamArtifacts:
    """Assemble and solve one beam and keep its lowest FE modes; no transient."""
    model = bc.model()
    system = assemble_model(model)
    if system.n_channels == 0:
        raise ValueError(f"beam {bc.beam_id} has no measurement channels")
    modal = modal_analysis(model, system)
    n_modes = min(n_modes, modal.n_modes)
    return BeamArtifacts(bc, model, system, modal, modal.frequencies[:n_modes],
                         modal.channel_shapes(system)[:, :n_modes])


def simulate_beam(bc: BeamConfig, master_seed: int,
                  n_modes: int = CampaignConfig.n_modes) -> BeamArtifacts:
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
    failed: bool
    notes: tuple[str, ...]
    identified_frequencies: tuple[float, ...]
    modes: tuple[ModeOutcome, ...]


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
    "SSI": lambda rec, cfg, g: ssi_identify(rec, cfg.ssi),
}


def _score_method(mode_set: IdentifiedModeSet, ref_freqs, ref_shapes,
                  config: CampaignConfig) -> MethodResult:
    """Pair to the reference; score unpaired modes by the set's own shape extractor."""
    pairing = pair_to_reference(mode_set.frequencies, mode_set.shapes, ref_freqs, ref_shapes,
                                config.pairing)
    outcomes = []
    for k, match in enumerate(pairing.matches):
        if match is not None:
            idx, freq, m = match
            shape = mode_set.modes[idx].shape
            outcomes.append(ModeOutcome(True, freq, m,
                                        relative_error(freq, float(ref_freqs[k])),
                                        tuple(float(x) for x in shape)))
        else:
            shape = mode_set.shape_at(float(ref_freqs[k]), config.pairing.f_window)
            m = mac(shape, ref_shapes[:, k]) if shape is not None else 0.0
            outcomes.append(ModeOutcome(False, None, m, None, None))
    return MethodResult(False, mode_set.notes,
                        tuple(float(f) for f in mode_set.frequencies), tuple(outcomes))


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


def identify_record(record: MultiChannelRecord, artifacts: BeamArtifacts,
                    config: CampaignConfig) -> dict[str, MethodResult]:
    """Identify ``record`` with each of ``config.methods`` and score it
    against the beam's FE reference, by method name.

    Numerical and validation errors of an identifier, including those of the
    CSD matrix that PP and FDD share, are recorded in its result and never
    abort the others; any other exception propagates.
    """
    ref_f = artifacts.reference_frequencies
    spectral = None
    methods: dict[str, MethodResult] = {}
    for name in config.methods:
        try:
            if spectral is None and name in ("PP", "FDD"):
                spectral = csd_matrix(record, config.estimator)
            mode_set = _IDENTIFIERS[name](record, config, spectral)
            methods[name] = _score_method(mode_set, ref_f, artifacts.reference_shapes, config)
        except (ValueError, np.linalg.LinAlgError) as exc:  # identifier failure: record it
            empty = (ModeOutcome(False, None, 0.0, None, None),) * ref_f.size
            note = f"failed: {type(exc).__name__}: {exc}"
            methods[name] = MethodResult(True, (note,), (), empty)
    return methods


def run_single(artifacts: BeamArtifacts, config: CampaignConfig,
               nl_index: int, run_index: int) -> RunResult:
    """One corrupt-identify-score pass for a cached beam."""
    noisy, snr_db = _noisy_record(artifacts, config, nl_index, run_index)
    return RunResult(artifacts.config.beam_id, config.noise_levels[nl_index], nl_index,
                     run_index, snr_db, identify_record(noisy, artifacts, config))


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

    config: CampaignConfig
    reference: dict
    results: tuple[RunResult, ...]

    @cached_property
    def failure_counts(self) -> dict:
        """Failed identifier runs per method."""
        return dict(Counter(name for r in self.results
                            for name, mr in r.methods.items() if mr.failed))

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

    def mac_statistics(self) -> dict:
        """min/mean/std of the per-run MAC per (beam, method, mode, level)."""
        return self._mac_statistics

    @cached_property
    def _mac_statistics(self) -> dict:
        stats: dict = {}
        config = self.config
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
        """Write the report: an indented header, then one compact line per result.

        Any ``indent`` sends ``json`` through its pure-Python encoder, so only
        the small header is indented; each result, nearly all of the file,
        is encoded by the C encoder and written as soon as it is encoded.
        """
        head = {
            "schema_version": SCHEMA_VERSION,
            "config": self.config.to_dict(),
            "reference": self.reference,
            "failure_counts": self.failure_counts,
            "mac_statistics": self.mac_statistics(),
        }
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(json.dumps(head, indent=1).removesuffix("\n}"))
            fh.write(',\n "results": [')
            separator = "\n"
            for r in self.results:
                fh.write(separator + json.dumps(_to_json(r)))
                separator = ",\n"
            fh.write("\n ]\n}\n")

    @classmethod
    def from_json(cls, path) -> "BenchmarkReport":
        # Decoding and building the results make millions of objects and no
        # reference cycle, so the cyclic collector is paused: each of its
        # passes on the way would scan every container made so far.
        gc_enabled = gc.isenabled()
        gc.disable()
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
            results = tuple(_run_from_dict(d) for d in doc["results"])
        finally:
            if gc_enabled:
                gc.enable()
        return cls(CampaignConfig.from_dict(doc["config"]), doc["reference"], results)


def _run_from_dict(d: dict) -> RunResult:
    methods = {}
    for name, md in d["methods"].items():
        modes = tuple(ModeOutcome(o["identified"], o["frequency"], o["mac"],
                                  o["rel_err_pct"],
                                  tuple(o["shape"]) if o["shape"] is not None else None)
                      for o in md["modes"])
        methods[name] = MethodResult(md["failed"], tuple(md["notes"]),
                                     tuple(md["identified_frequencies"]), modes)
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
    return BenchmarkReport(config, reference, tuple(results))


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
    config = report.config
    os.makedirs(outdir, exist_ok=True)
    written = []

    def path(name):
        p = os.path.join(outdir, name)
        written.append(p)
        return p

    report.to_json(path("report.json"))
    with open(path("config_resolved.json"), "w", encoding="utf-8", newline="\n") as fh:
        json.dump(config.to_dict(), fh, indent=1)
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
            curve = anpsd(noisy, config.estimator)
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
