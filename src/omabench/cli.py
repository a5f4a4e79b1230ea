"""Command-line pipeline: simulate, corrupt, identify, bench, report.

Every command is deterministic: omitting ``--seed`` falls back to the fixed
default 42, never the clock.  Exit codes: 0 success, 1 usage error,
2 numerical or I/O failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

import numpy as np

from .beam import SUPPORTS
from .dsp import MultiChannelRecord
from .harness import (BeamConfig, BenchmarkReport, CampaignConfig, DEFAULT_SEED,
                      _fmt, _write_csv, fe_reference, identify_record, run_campaign,
                      simulate_beam, simulate_beams, summarize_and_tables)
from .noise import NoiseSpec, corrupt

__all__ = ["main", "run_cli", "resolve_jobs", "DEFAULT_SEED"]


class _Parser(argparse.ArgumentParser):
    """argparse variant using exit code 1 for usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def resolve_jobs(requested: int | None) -> int:
    """--jobs value, then OMA_BENCH_JOBS, then the available core count."""
    if requested is not None:
        return max(1, requested)
    env = os.environ.get("OMA_BENCH_JOBS", "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError as exc:
            raise ValueError(f"OMA_BENCH_JOBS must be an integer, got {env!r}") from exc
    return os.cpu_count() or 1


def _load_record(path) -> MultiChannelRecord:
    if str(path).endswith(".npz"):
        return MultiChannelRecord.from_npz(path)
    return MultiChannelRecord.from_csv(path)


def _save_record(record: MultiChannelRecord, path) -> None:
    if str(path).endswith(".npz"):
        record.to_npz(path)
    else:
        record.to_csv(path)


def _build_parser() -> _Parser:
    parser = _Parser(prog="omabench",
                     description="Noise-robustness workbench for output-only "
                                 "modal identification on beam models.")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="write a noise-free acceleration record")
    sim.add_argument("--beam", required=True, choices=SUPPORTS,
                     help="support configuration / beam id")
    sim.add_argument("--out", required=True, help="output record (.csv or .npz)")
    sim.add_argument("--seed", type=int, default=DEFAULT_SEED)
    sim.add_argument("--duration", type=float, default=BeamConfig.duration,
                     help="record length [s]")
    sim.add_argument("--dt", type=float, default=BeamConfig.dt, help="time step [s]")
    sim.add_argument("--elements", type=int, default=BeamConfig.n_elements,
                     help="finite elements")

    cor = sub.add_parser("corrupt", help="add RMS-scaled Gaussian noise to a record")
    cor.add_argument("--in", dest="infile", required=True)
    cor.add_argument("--nl", type=float, required=True, help="noise level (>= 0)")
    cor.add_argument("--out", required=True)
    cor.add_argument("--seed", type=int, default=DEFAULT_SEED)

    idf = sub.add_parser("identify", help="run one identifier and pair to the FE reference")
    idf.add_argument("--in", dest="infile", required=True)
    idf.add_argument("--method", required=True, choices=("pp", "fdd", "ssi"))
    idf.add_argument("--beam", required=True, choices=SUPPORTS,
                     help="beam whose FE modes serve as reference")
    idf.add_argument("--out", required=True, help="output mode table (.csv)")
    idf.add_argument("--modes", type=int, default=CampaignConfig.n_modes,
                     help="reference modes to pair")

    ben = sub.add_parser("bench", help="run the Monte Carlo campaign from a config file")
    ben.add_argument("--config", required=True, help="campaign config (JSON)")
    ben.add_argument("--out", default=None, help="output directory (overrides config)")
    ben.add_argument("--jobs", type=int, default=None,
                     help="parallel runs; default: OMA_BENCH_JOBS or all cores")
    ben.add_argument("--runs", type=int, default=None,
                     help="runs per noise level (e.g. 100 for the full campaign)")

    rep = sub.add_parser("report", help="re-emit tables from a stored report")
    rep.add_argument("--in", dest="infile", required=True, help="report.json")
    rep.add_argument("--out", default=None, help="output directory (default: alongside input)")
    return parser


def _cmd_simulate(args) -> int:
    bc = BeamConfig(args.beam, args.beam, n_elements=args.elements,
                    dt=args.dt, duration=args.duration)
    art = simulate_beam(bc, args.seed)
    _save_record(art.clean_record, args.out)
    rec = art.clean_record
    print(f"wrote {args.out}: {rec.n_channels} channels x {rec.n_samples} samples "
          f"at {rec.sample_rate:g} Hz")
    return 0


def _cmd_corrupt(args) -> int:
    record = _load_record(args.infile)
    noisy, report = corrupt(record, NoiseSpec(args.nl, args.seed))
    _save_record(noisy, args.out)
    if report.nominal_snr_db is None:
        print(f"wrote {args.out}: noise level 0, record unchanged")
    else:
        mean_db = float(np.mean(report.snr_db))
        print(f"wrote {args.out}: noise level {args.nl:g} "
              f"(nominal {report.nominal_snr_db:.2f} dB, "
              f"realized mean {mean_db:.2f} dB)")
    return 0


def _cmd_identify(args) -> int:
    """Score a record as a campaign cell is scored, with the campaign settings."""
    record = _load_record(args.infile)
    art = fe_reference(BeamConfig(args.beam, args.beam), args.modes)
    method = args.method.upper()
    result = identify_record(record, art, replace(CampaignConfig(), methods=(method,)))[method]
    if result.failed:
        raise ValueError(result.notes[0].removeprefix("failed: "))
    _write_csv(args.out, ["mode", "reference_hz", "frequency_hz", "rel_err_pct", "mac"],
               ([str(k + 1), _fmt(ref), _fmt(o.frequency), _fmt(o.rel_err_pct),
                 _fmt(o.mac if o.identified else None)]
                for k, (ref, o) in enumerate(zip(art.reference_frequencies, result.modes))))
    n_paired = sum(o.identified for o in result.modes)
    print(f"wrote {args.out}: {n_paired}/{len(result.modes)} modes paired "
          f"({method}, {len(result.identified_frequencies)} candidates)")
    return 0


def _cmd_bench(args) -> int:
    with open(args.config, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    overrides = {"runs": args.runs, "output_dir": args.out}
    config = replace(CampaignConfig.from_dict(doc),
                     **{k: v for k, v in overrides.items() if v is not None})
    artifacts = simulate_beams(config)
    report = run_campaign(config, jobs=resolve_jobs(args.jobs), artifacts=artifacts)
    written = summarize_and_tables(report, config.output_dir, artifacts=artifacts)
    print(f"campaign complete: {len(report.results)} runs, "
          f"{sum(report.failure_counts.values())} identifier failures, "
          f"{len(written)} files in {config.output_dir}")
    return 0


def _cmd_report(args) -> int:
    report = BenchmarkReport.from_json(args.infile)
    outdir = args.out or (os.path.dirname(os.path.abspath(args.infile)) or ".")
    written = summarize_and_tables(report, outdir)
    print(f"re-emitted {len(written)} files in {outdir}")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "corrupt": _cmd_corrupt,
    "identify": _cmd_identify,
    "bench": _cmd_bench,
    "report": _cmd_report,
}


def run_cli(argv=None) -> int:
    """Parse ``argv`` and execute; returns the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError, KeyError, np.linalg.LinAlgError) as exc:
        print(f"omabench: {args.command} failed: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    raise SystemExit(run_cli())


if __name__ == "__main__":
    main()
