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
from concurrent.futures import Executor, ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import MISSING, dataclass, field, fields, replace
from functools import cached_property, lru_cache, partial

import numpy as np

from .beam import (BeamModel, GlobalSystem, ModalSolution, SUPPORTS, assemble_model,
                   modal_analysis, transient_response)
from .dsp import (IdentificationError, MultiChannelRecord, SpectralEstimatorOptions,
                  band_limited_force, csd_matrix, derive_seed, fmt, force_lines, write_csv)
from .freqdom import (IdentifiedModeSet, PeakOptions, anpsd, fdd_identify, pp_identify,
                      unit_normalize, write_curve_csv)
from .metrics import PairingOptions, mac, pair_to_reference, relative_error
from .noise import corrupt, noise_level_to_snr_db
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
    "campaign_pool",
    "run_campaign",
    "summarize_and_tables",
]

SCHEMA_VERSION = 1
DEFAULT_SEED = 42
DEFAULT_NOISE_LEVELS = (0.05, 0.10, 0.20, 0.50, 0.75, 1.00, 2.00)
METHOD_NAMES = ("PP", "FDD", "SSI")


@dataclass(frozen=True)
class BeamConfig:
    """One benchmark beam plus its excitation settings.

    Every beam default lives here; :meth:`model` hands the beam fields to
    :class:`BeamModel`, whose range checks therefore run when the config is
    built, as does :func:`~omabench.dsp.force_lines`' check of the
    excitation.  ``poisson_ratio`` stays in the JSON layout but is unused:
    Euler-Bernoulli bending does not depend on it.
    """

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
        # A tuple, so the beam is hashable: it keys fe_reference's cache.
        object.__setattr__(self, "force_band", tuple(self.force_band))
        if not self.beam_id:
            raise ValueError("beam_id must be non-empty")
        for name in ("dt", "duration"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        force_lines(self.duration, 1.0 / self.dt, self.force_band, self.force_rms)
        self.model()

    def model(self) -> BeamModel:
        return BeamModel(self.elastic_modulus, self.density, self.width, self.height,
                         self.span, self.n_elements, self.support, self.damping_ratio)


def default_beams() -> tuple[BeamConfig, ...]:
    """The four standard 1 m steel beams (CF, SS, CS, CC)."""
    return tuple(BeamConfig(s, s) for s in SUPPORTS)


@dataclass(frozen=True)
class CampaignConfig:
    """Fully resolved campaign settings (see :func:`CampaignConfig.from_dict`).

    The field order and nesting are those of the JSON form.  Loading checks
    every beam with :func:`fe_reference`, which keeps the solution.
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
        for bc in self.beams:  # fe_reference raises for a beam that cannot serve
            n_channels = fe_reference(bc, self.n_modes).system.n_channels
            try:
                self.ssi.resolve_orders(n_channels)
            except ValueError as exc:
                raise ValueError(f"ssi.orders for beam {bc.beam_id}: {exc}") from None

    def to_dict(self) -> dict:
        return {"schema_version": SCHEMA_VERSION, **json.loads(_JSON.encode(self))}

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
        return _decode("CampaignConfig", doc, "config")


# Dataclasses become objects (their ``__dict__`` is their fields, in order),
# tuples lists; the C encoder walks the rest.
_JSON = json.JSONEncoder(default=vars)


@dataclass(frozen=True)
class BeamArtifacts:
    """Cached per-beam objects shared by every run of a campaign."""

    config: BeamConfig
    system: GlobalSystem
    modal: ModalSolution
    reference_frequencies: np.ndarray
    reference_shapes: np.ndarray  # channels x n_modes
    clean_record: MultiChannelRecord | None = None  # None from fe_reference()


@lru_cache(maxsize=16)
def fe_reference(bc: BeamConfig, n_modes: int, /) -> BeamArtifacts:
    """Assemble and solve one beam and keep its lowest ``n_modes`` FE modes; no
    transient.  A beam without a measurement channel or ``n_modes`` modes raises.

    The last 16 ``(bc, n_modes)`` solves are kept per process; both arguments
    are positional, so each pair has one cache key.  Every caller shares the
    result, so its reference arrays are read-only.
    """
    if n_modes < 1:
        raise ValueError("n_modes must be >= 1")
    model = bc.model()
    system = assemble_model(model)
    if system.n_channels == 0:
        raise ValueError(f"beam {bc.beam_id} has no measurement channels")
    modal = modal_analysis(model, system)
    if modal.n_modes < n_modes:
        raise ValueError(f"beam {bc.beam_id} has {modal.n_modes} FE modes, "
                         f"fewer than n_modes = {n_modes}")
    shapes = modal.channel_shapes(system)[:, :n_modes]
    shapes.flags.writeable = False  # a fancy-indexed copy; the frequencies already are
    return BeamArtifacts(bc, system, modal, modal.frequencies[:n_modes], shapes)


def simulate_beam(bc: BeamConfig, master_seed: int,
                  n_modes: int = CampaignConfig.n_modes) -> BeamArtifacts:
    """Simulate one beam's :func:`fe_reference` with derived excitation seeds.

    Every free vertical DOF is driven by an independent band-limited force;
    all FE modes participate in the response.
    """
    ref = fe_reference(bc, n_modes)
    rate = 1.0 / bc.dt
    labels = ref.system.channel_labels
    seeds = [derive_seed(master_seed, "force", bc.beam_id, label) for label in labels]
    forces = MultiChannelRecord(
        rate, band_limited_force(bc.duration, rate, bc.force_band, bc.force_rms, seeds),
        labels)
    record = transient_response(ref.system, ref.modal, forces)
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


Decibels = float  # unlike a float field's value, an SNR may be infinite


@dataclass(frozen=True)
class RunResult:
    beam_id: str
    noise_level: float
    nl_index: int
    run_index: int
    snr_db: tuple[Decibels | None, ...] | None
    methods: dict[str, MethodResult]


# ---------------------------------------------------------------------------
# JSON decoding: the config and the stored results, by their field annotations.

class _Mismatch(Exception):
    """A JSON value that does not fit its field.  ``args`` are the problem
    (None for an unknown key) and the value's path, innermost part first,
    which its containers extend as the error passes out through them."""


# JSON scalars by annotation: what a value must be, and its check by JSON type.
_SCALARS = {
    "int": ("an integer", {int: True}),
    "float": ("a finite number", {int: True, float: math.isfinite}),
    "Decibels": ("a number", {int: True, float: lambda v: not math.isnan(v)}),
    "bool": ("a boolean", {bool: True}),
    "str": ("a string", {str: True}),
}
# Sections by annotation: each builds from a JSON object of its fields.
_SECTIONS = {cls.__name__: cls for cls in (
    CampaignConfig, PairingOptions, SpectralEstimatorOptions, PeakOptions, SsiOptions,
    BeamConfig, RunResult, MethodResult, ModeOutcome)}


def _decode(annotation: str, value, document: str, root: str = ""):
    """``value`` as a field annotated ``annotation``.  A value that does not
    fit raises ``ValueError`` naming its path in ``document`` from ``root``."""
    try:
        return _decoder(annotation)(value)
    except _Mismatch as exc:
        problem, path = exc.args
        path = (root + "".join(reversed(path))).removeprefix(".")
        if problem is None:
            raise ValueError(f"unknown {document} key {path!r}") from None
        raise ValueError(f"{document} key {path!r} {problem}") from None


@lru_cache(maxsize=None)
def _decoder(annotation: str):
    """The check and build of a JSON value of a field annotated ``annotation``.

    A section builds from an object of its fields; a field it leaves out
    takes its default, and must have one.  A ``tuple[X, ...]`` (or
    ``tuple[X, X]``) builds from a list of X, checked in one pass when X is
    a scalar, and a ``dict[str, X]`` from an object of X.  A scalar must be
    JSON of its kind above, and a ``T | None`` field also takes null.
    """
    optional = annotation.endswith(" | None")
    kind, _, items = annotation.removesuffix(" | None").partition("[")
    if kind in _SECTIONS:
        cls = _SECTIONS[kind]
        return _object(cls, {f.name: _decoder(f.type) for f in fields(cls)}, None,
                       {f.name for f in fields(cls)
                        if f.default is MISSING and f.default_factory is MISSING})
    if kind == "dict":
        return _object(dict, {}, _decoder(items[:-1].split(", ")[1]), set())
    if kind == "tuple":
        return _sequence(items.split(",")[0], optional)
    what, checks = _SCALARS[kind]
    checks = {**checks, type(None): True} if optional else checks

    def decode(value):
        check = checks.get(type(value))
        if check is True or check is not None and check(value):
            return value
        raise _Mismatch(f"must be {what}", [])
    return decode


def _object(make, decoders: dict, default, required: set):
    """``make`` from an object of entries decoded by their key's decoder, else ``default``."""

    def build(doc):
        if not isinstance(doc, dict):
            raise _Mismatch("must be an object", [])
        values = {}
        for key, value in doc.items():
            decode = decoders.get(key, default)
            if decode is None:
                raise _Mismatch(None, [f".{key}"])
            try:
                values[key] = decode(value)
            except _Mismatch as exc:
                exc.args[1].append(f".{key}")
                raise
        if not required <= values.keys():
            raise _Mismatch("is missing", [f".{min(required - values.keys())}"])
        return make(**values)
    return build


def _sequence(item: str, optional: bool):
    decode = _decoder(item)
    checks = _SCALARS[item][1] if item in _SCALARS else {}

    def build(value):
        if not isinstance(value, list):
            if value is None and optional:
                return None
            raise _Mismatch("must be a list", [])
        types = {*map(type, value)}
        check = checks.get(types.pop()) if len(types) == 1 else None
        if check is True or check is not None and all(map(check, value)):
            return tuple(value)
        values = []
        for i, entry in enumerate(value):
            try:
                values.append(decode(entry))
            except _Mismatch as exc:
                exc.args[1].append(f"[{i}]")
                raise
        return tuple(values)
    return build


# Identifiers by method name; PP and FDD share the run's CSD matrix ``g``.
_IDENTIFIERS = {
    "PP": lambda rec, cfg, g: pp_identify(g, cfg.peaks),
    "FDD": lambda rec, cfg, g: fdd_identify(g, cfg.peaks),
    "SSI": lambda rec, cfg, g: ssi_identify(rec, cfg.ssi),
}


def _score_method(mode_set: IdentifiedModeSet, ref_freqs, ref_shapes,
                  config: CampaignConfig) -> MethodResult:
    """Pair to the reference; score the unpaired modes by one ``shape_at`` read."""
    matches = pair_to_reference(mode_set.frequencies, mode_set.shapes, ref_freqs, ref_shapes,
                                config.pairing)
    unpaired = [k for k, match in enumerate(matches) if match is None]
    read = iter(mode_set.shape_at(ref_freqs[unpaired].tolist(), config.pairing.f_window))
    outcomes = []
    for k, match in enumerate(matches):
        if match is not None:
            idx, freq, m = match
            shape = mode_set.modes[idx].shape
            outcomes.append(ModeOutcome(True, freq, m,
                                        relative_error(freq, float(ref_freqs[k])),
                                        tuple(float(x) for x in shape)))
        else:
            shape = next(read)
            m = mac(shape, ref_shapes[:, k]) if shape is not None else 0.0
            outcomes.append(ModeOutcome(False, None, m, None, None))
    return MethodResult(False, mode_set.notes,
                        tuple(float(f) for f in mode_set.frequencies), tuple(outcomes))


def _noisy_record(artifacts: BeamArtifacts, config: CampaignConfig,
                  nl_index: int, run_index: int):
    """The (level, run) cell's corrupted record and its per-channel SNR [dB]."""
    return corrupt(artifacts.clean_record, config.noise_levels[nl_index],
                   derive_seed(config.master_seed, "noise", artifacts.config.beam_id,
                               nl_index, run_index))


def identify_record(record: MultiChannelRecord, artifacts: BeamArtifacts,
                    config: CampaignConfig) -> dict[str, MethodResult]:
    """Identify ``record`` with each of ``config.methods`` and score it
    against the beam's FE reference, by method name.

    An :class:`~omabench.dsp.IdentificationError` (a record too short or
    without power or shape) or a ``LinAlgError`` of an identifier, including
    those of the CSD matrix that PP and FDD share, is recorded in its result
    and never aborts the others; any other exception, a plain ``ValueError``
    included, is a programming error and propagates.  A record whose channel
    count differs from the reference shapes' is the caller's error and
    raises ``ValueError`` before any identifier runs.
    """
    n_ref = artifacts.reference_shapes.shape[0]
    if record.n_channels != n_ref:
        raise ValueError(f"record has {record.n_channels} channels but beam "
                         f"{artifacts.config.beam_id} has {n_ref}")
    ref_f = artifacts.reference_frequencies
    # The cross-spectra PP and FDD read: the peak search band plus one line,
    # and the line nearest each reference frequency, which shape_at reads.
    f_max = max(config.peaks.band[1], float(ref_f.max()))
    spectral = None
    methods: dict[str, MethodResult] = {}
    for name in config.methods:
        try:
            if spectral is None and name in ("PP", "FDD"):
                spectral = csd_matrix(record, config.estimator, f_max)
            mode_set = _IDENTIFIERS[name](record, config, spectral)
            methods[name] = _score_method(mode_set, ref_f, artifacts.reference_shapes, config)
        except (IdentificationError, np.linalg.LinAlgError) as exc:  # record it
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


def _write_worst_curve(config: CampaignConfig, artifacts: dict, task) -> str:
    """Write the ANPSD curve of one cell's worst run, re-corrupted as it ran,
    and return its path.

    ``task`` is ``(beam_id, nl_index, run_index, path)``.
    """
    beam_id, nl_index, run_index, path = task
    noisy, _ = _noisy_record(artifacts[beam_id], config, nl_index, run_index)
    curve = anpsd(noisy, config.estimator)
    write_curve_csv(path, curve.frequencies, curve.values)
    return path


def _worker_curve(task) -> str:
    return _write_worst_curve(*_WORKER_ARGS, task)


def campaign_pool(config: CampaignConfig, artifacts: dict, jobs: int) -> ProcessPoolExecutor:
    """``jobs`` worker processes, at most one per core, that hold ``config``
    and its simulated beams, for :func:`run_campaign` and then
    :func:`summarize_and_tables`."""
    return ProcessPoolExecutor(max_workers=min(jobs, os.cpu_count() or 1),
                               initializer=_worker_init, initargs=(config, artifacts))


@dataclass(frozen=True)
class BenchmarkReport:
    """A campaign's config and results, JSON round-trippable; every other
    report section, the FE reference included, is derived from them."""

    config: CampaignConfig
    results: tuple[RunResult, ...]

    @cached_property
    def reference(self) -> dict:
        """FE reference modal data of each config beam, by beam id."""
        return {art.config.beam_id: {"frequencies": art.reference_frequencies.tolist(),
                                     "channel_shapes": art.reference_shapes.T.tolist(),
                                     "channel_coords": art.system.channel_coords.tolist(),
                                     "channel_labels": list(art.system.channel_labels)}
                for art in (fe_reference(bc, self.config.n_modes) for bc in self.config.beams)}

    @cached_property
    def failure_counts(self) -> dict:
        """Failed identifier runs per method."""
        return dict(Counter(name for r in self.results
                            for name, mr in r.methods.items() if mr.failed))

    @cached_property
    def _cells(self) -> dict:
        """The runs of every (beam_id, nl_index) of the config, in config
        order; each cell's runs in report order."""
        cells = {(bc.beam_id, nl_index): [] for bc in self.config.beams
                 for nl_index in range(len(self.config.noise_levels))}
        for r in self.results:
            cells[r.beam_id, r.nl_index].append(r)
        return cells

    def runs_for(self, beam_id: str, nl_index: int) -> list[RunResult]:
        return list(self._cells.get((beam_id, nl_index), ()))

    def worst_run(self, beam_id: str, nl_index: int, method: str) -> RunResult:
        """Run minimizing the minimum per-mode MAC of ``method`` at this level;
        a tie goes to the lower ``run_index``."""
        runs = self._cells.get((beam_id, nl_index))
        if not runs:
            raise ValueError(f"no runs for beam {beam_id} at level index {nl_index}")
        return min(runs, key=lambda r: (min(o.mac for o in r.methods[method].modes),
                                        r.run_index))

    def mac_statistics(self) -> dict:
        """min/mean/std of the per-run MAC per (beam, method, mode, level)."""
        return self._mac_statistics

    @cached_property
    def _mac_statistics(self) -> dict:
        config = self.config
        stats = {bc.beam_id: {name: [{} for _ in range(config.n_modes)]
                              for name in config.methods} for bc in config.beams}
        # zip gives one tuple of outcomes per mode, and none for a cell with no runs.
        for (beam_id, nl_index), runs in self._cells.items():
            for name in config.methods:
                for k, outcomes in enumerate(zip(*(r.methods[name].modes for r in runs))):
                    macs = [o.mac for o in outcomes]
                    stats[beam_id][name][k][nl_index] = {"min": float(np.min(macs)),
                                                         "mean": float(np.mean(macs)),
                                                         "std": float(np.std(macs))}
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
        # Written beside ``path`` and renamed over it, so an interrupted write
        # never leaves a truncated report (``report`` may rewrite its input).
        tmp = f"{path}.{os.getpid()}.tmp"
        try:
            with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(json.dumps(head, indent=1).removesuffix("\n}"))
                fh.write(',\n "results": [')
                separator = "\n"
                for r in self.results:
                    fh.write(separator + _JSON.encode(r))
                    separator = ",\n"
                fh.write("\n ]\n}\n")
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.remove(tmp)

    @classmethod
    def from_json(cls, path) -> "BenchmarkReport":
        """Load a stored report's config and results.  Its ``schema_version``
        is checked as a config's is: absent means 1.  Every stored value
        must fit its field's type, by the rule the config is read by; every
        result must fit the config (:func:`_misfit`) and not repeat the
        (beam, level, run) of an earlier one.  Else ``ValueError``.  Runs
        may be missing."""
        # Decoding and building the results make millions of objects and no
        # reference cycle, so the cyclic collector is paused: each of its
        # passes on the way would scan every container made so far.
        gc_enabled = gc.isenabled()
        gc.disable()
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
            if not isinstance(doc, dict):
                raise ValueError("a report must be an object")
            version = doc.get("schema_version", SCHEMA_VERSION)
            if version != SCHEMA_VERSION:
                raise ValueError(f"unsupported report schema_version {version}")
            try:
                config, stored = doc["config"], doc["results"]
            except KeyError as exc:
                raise ValueError(f"report has no key {exc}") from None
            config = CampaignConfig.from_dict(config)
            results = _decode("tuple[RunResult, ...]", stored, "report", "results")
            # Freed before the runs are indexed, so the index takes the document's
            # memory and does not raise the later peak.
            del doc, stored
            first = {}
            for i, r in enumerate(results):
                problem = _misfit(r, config)
                if problem is not None:
                    raise ValueError(f"report result {i} does not fit its config: {problem}")
                j = first.setdefault((r.beam_id, r.nl_index, r.run_index), i)
                if j != i:
                    raise ValueError(f"report result {i} repeats the beam, level and run "
                                     f"of result {j}")
        finally:
            if gc_enabled:
                gc.enable()
        return cls(config, results)


def _misfit(run: RunResult, config: CampaignConfig) -> str | None:
    """Why ``run`` cannot be a result of ``config``'s campaign, if it cannot."""
    beam = next((bc for bc in config.beams if bc.beam_id == run.beam_id), None)
    if beam is None:
        return f"beam {run.beam_id!r} is not a config beam"
    if run.nl_index not in range(len(config.noise_levels)):
        return f"nl_index {run.nl_index!r} is not an index of the noise levels"
    level = config.noise_levels[run.nl_index]
    if run.noise_level != level:
        return f"noise_level {run.noise_level!r} is not the config's level {level!r}"
    runs = 1 if level == 0 else config.runs  # as run_campaign's grid
    if run.run_index not in range(runs):
        return f"run_index {run.run_index!r} is not an index of the {runs} runs at {level!r}"
    if sorted(run.methods) != sorted(config.methods):
        return f"methods {list(run.methods)} are not the config's {list(config.methods)}"
    n_channels = fe_reference(beam, config.n_modes).system.n_channels
    for name, result in run.methods.items():
        if len(result.modes) != config.n_modes:
            return f"{name} has {len(result.modes)} modes, not n_modes = {config.n_modes}"
        for k, o in enumerate(result.modes):
            if o.shape is not None and len(o.shape) != n_channels:
                return (f"{name} mode {k + 1} shape has {len(o.shape)} entries, "
                        f"not one per channel of beam {beam.beam_id} ({n_channels})")
    return None


def run_campaign(config: CampaignConfig, jobs: int = 1, artifacts: dict | None = None,
                 pool: Executor | None = None) -> BenchmarkReport:
    """Execute the full campaign grid and assemble the report.

    ``artifacts`` are the simulated beams (:func:`simulate_beams`), made here
    when not given.  The runs go to ``pool`` (:func:`campaign_pool` of this
    config and these beams) when given, else to a pool of ``jobs`` workers
    when ``jobs > 1``, one run per task so no worker idles while another
    holds queued runs.  Results keep the task order, so the report is
    independent of completion order.
    """
    if artifacts is None:
        artifacts = simulate_beams(config)
    # (beam, level, run) grid; noise-free levels collapse to a single run.
    tasks = [(bc.beam_id, nl_index, run) for bc in config.beams
             for nl_index, level in enumerate(config.noise_levels)
             for run in range(1 if level == 0 else config.runs)]
    own = campaign_pool(config, artifacts, jobs) if pool is None and jobs > 1 else None
    with own or nullcontext(pool) as pool:
        results = (list(pool.map(_worker_run, tasks)) if pool is not None else
                   [run_single(artifacts[b], config, nl, run) for b, nl, run in tasks])
    return BenchmarkReport(config, tuple(results))


# ---------------------------------------------------------------------------
# table emission

def summarize_and_tables(report: BenchmarkReport, outdir, artifacts: dict,
                         pool: Executor | None = None) -> list[str]:
    """Write report.json, the campaign tables and the plot-data CSVs.

    ``artifacts`` are the campaign's simulated beams (:func:`simulate_beams`).
    Frequency and mode-shape tables are taken from the worst-case run of
    each (beam, level) cell, selected by the minimum per-mode MAC of the
    first configured method (PP when present).  Each cell's ANPSD curve
    re-corrupts its worst run; with ``pool`` (:func:`campaign_pool` of the
    report's campaign) the workers write the curves while this process
    writes the rest, else this process writes them last.  Returns the
    written paths, the curves' last.
    """
    config = report.config
    written = []

    def path(name):
        p = os.path.join(outdir, name)
        written.append(p)
        return p

    methods, modes = config.methods, range(config.n_modes)
    levels = range(len(config.noise_levels))
    tags = [fmt(level) for level in config.noise_levels]
    snrs = [fmt(math.inf if level == 0 else noise_level_to_snr_db(level))
            for level in config.noise_levels]
    # Worst-case run of every (beam, level) cell, in config order, shared by all the outputs.
    rank_by = "PP" if "PP" in methods else methods[0]
    worst = {cell: report.worst_run(*cell, rank_by) for cell in report._cells}
    tasks = [(beam_id, nl, run.run_index, os.path.join(outdir, f"anpsd_{beam_id}_{tags[nl]}.csv"))
             for (beam_id, nl), run in worst.items()]
    os.makedirs(outdir, exist_ok=True)  # only once every cell has a worst run
    # A pool's workers take every curve now; the serial map writes them as it is read, last.
    curves = (pool.map(_worker_curve, tasks) if pool is not None else
              map(partial(_write_worst_curve, config, artifacts), tasks))

    report.to_json(path("report.json"))
    with open(path("config_resolved.json"), "w", encoding="utf-8", newline="\n") as fh:
        json.dump(config.to_dict(), fh, indent=1)
        fh.write("\n")

    stats = report.mac_statistics()
    err_rows = []
    for bc in config.beams:
        beam_id = bc.beam_id
        write_csv(path(f"table_freq_{beam_id}.csv"),
                  ["noise_level", "snr_db", "method"] + [f"mode{k+1}_hz" for k in modes],
                  ([tags[nl], snrs[nl], name] +
                   [fmt(o.frequency if o.identified else None)
                    for o in worst[beam_id, nl].methods[name].modes]
                   for nl in levels for name in methods))
        write_csv(path(f"table_mac_{beam_id}.csv"),
                  ["noise_level", "snr_db", "method", "mode",
                   "mac_min", "mac_mean", "mac_std", "mac_worst_run"],
                  ([tags[nl], snrs[nl], name, str(k + 1)] +
                   [fmt(stats[beam_id][name][k][nl][s]) for s in ("min", "mean", "std")] +
                   [fmt(worst[beam_id, nl].methods[name].modes[k].mac)]
                   for nl in levels for name in methods for k in modes))
        for name in methods:
            for k in modes:
                outcomes = [worst[beam_id, nl].methods[name].modes[k] for nl in levels]
                errs = [o.rel_err_pct for o in outcomes if o.identified]
                err_rows.append([beam_id, name, str(k + 1),
                                 fmt(np.mean(errs) if errs else None)])

        # Plot data: reference + identified shapes of the worst run per level.
        art = artifacts[beam_id]
        coords = art.system.channel_coords
        for nl in levels:
            wrun = worst[beam_id, nl]
            for k in modes:
                ref_shape = unit_normalize(art.reference_shapes[:, k])
                shapes = [wrun.methods[name].modes[k].shape for name in methods]
                write_csv(path(f"modeshape_{beam_id}_{k+1}_{tags[nl]}.csv"),
                          ["x_m", "reference"] + [name.lower() for name in methods],
                          ([fmt(coords[c]), fmt(ref_shape[c])] +
                           [fmt(shape[c] if shape is not None else None) for shape in shapes]
                           for c in range(coords.size)))

    write_csv(path("table_err.csv"), ["beam", "method", "mode", "mean_rel_err_pct"], err_rows)
    written.extend(curves)  # each curve's path; a worker's error is raised here
    return written
