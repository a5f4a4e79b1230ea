"""End-to-end and per-layer benchmark of the omabench campaign and report paths.

Usage (from the repository root):

    python3 perfbench/run.py --workload campaign_j2 --seed 1 --seconds 40 --trace 0

Each command runs in a fresh ``python3 perfbench/child.py`` process through
``omabench.cli.run_cli``, with ``src/`` on the import path, so no install is
needed.  Whole commands repeat until their summed wall time is as near to
``--seconds`` as whole commands allow.  After the timed commands, the first
command's outputs go through every check in ``checks.py``; each later
command must have written byte-identical files, or its own are checked in
full too.  Each check is one operation, and a command that does not exit 0
counts as one more.  The last line of standard output is one JSON object:
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced command plus the tracing overhead against an untraced
one.  Outputs go to ``.perfbench_work/`` and are removed at the end.
"""

import os

# Pin BLAS to one thread before numpy loads, here and in every command
# process: unpinned OpenBLAS oversubscribes the cores at --jobs 2 and makes
# wall times swing by tens of percent.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from checks import check_outputs, close, guarded, modes_paired  # noqa: E402
from tracer import load_spans, self_times, span_names  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# The seven paper levels, 26.02 dB down to -6.02 dB.
PAPER_LEVELS = (0.05, 0.10, 0.20, 0.50, 0.75, 1.00, 2.00)
METHODS = ("PP", "FDD", "SSI")
CAMPAIGN_LEVELS = (0.0,) + PAPER_LEVELS
CAMPAIGN_RUNS = 3
CAMPAIGN_JOBS = "2"
PARITY_CELLS = 3
# run_single spans per campaign command: 4 beams x (1 + 7 x 3) = 88.  The
# 88th percentile is the highest with ten samples beyond it (nearest rank).
TAIL_PERCENTILE = 88
RUN_DEADLINE_S = 170.0
WORKLOADS = ("campaign_j2", "report_full")


def per_layer_names() -> list[tuple[str, str]]:
    names = []
    for span in span_names():
        names += [(f"{span}.calls", "count"), (f"{span}.self_s", "s")]
    return names + [("harness.run_single.p50_ms", "ms"),
                    (f"harness.run_single.p{TAIL_PERCENTILE}_ms", "ms"),
                    ("harness.report_json_bytes", "bytes"),
                    ("trace.overhead_s", "s")]


def campaign_config(seed: int) -> dict:
    """Top-level keys only: the four standard beams by default."""
    return {"master_seed": seed, "runs": CAMPAIGN_RUNS,
            "noise_levels": list(CAMPAIGN_LEVELS), "methods": list(METHODS)}


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)]


class Run:
    """One benchmark invocation: its work directory, commands and tallies."""

    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.work = WORK / f"run-{os.getpid()}"
        self.start = time.monotonic()
        self.attempted = self.failed = 0
        self.n_commands = 0
        self.artifacts = None
        # Output sets kept for checking after the timed commands: (dir, fingerprint).
        self.kept: list[tuple[Path, dict]] = []

    def tally(self, name: str, ok: bool, detail: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"CHECK FAILED {self.workload} {name}: {detail}", file=sys.stderr)

    def prepare(self) -> None:
        self.work.mkdir(parents=True)
        if self.workload == "report_full":
            from gen_report import generate
            self.input = str(self.work / "input_report.json")
            self.config = generate(self.input, self.seed, PAPER_LEVELS)
            self.levels, self.runs = PAPER_LEVELS, self.config["runs"]
        else:
            self.config = campaign_config(self.seed)
            self.levels, self.runs = CAMPAIGN_LEVELS, CAMPAIGN_RUNS
            self.config_path = self.work / "campaign.json"
            self.config_path.write_text(json.dumps(self.config), encoding="utf-8")

    def setup(self) -> float:
        """Build every beam's clean record; keep the first set for the checks."""
        from omabench.harness import CampaignConfig, simulate_beam
        cfg = CampaignConfig.from_dict(campaign_config(self.seed))
        t0 = time.perf_counter()
        arts = {bc.beam_id: simulate_beam(bc, cfg.master_seed, cfg.n_modes)
                for bc in cfg.beams}
        seconds = time.perf_counter() - t0
        self.artifacts = self.artifacts or arts
        return seconds

    def argv(self, outdir: Path) -> list[str]:
        if self.workload == "report_full":
            return ["report", "--in", self.input, "--out", str(outdir)]
        return ["bench", "--config", str(self.config_path), "--out", str(outdir),
                "--jobs", CAMPAIGN_JOBS]

    def command(self, traced: bool) -> dict | None:
        """Run one command in a fresh process and return its costs.

        Its outputs are fingerprinted; a set unlike every kept one is kept
        for ``verify``, so nothing heavy runs between timed commands.
        """
        i = self.n_commands
        self.n_commands += 1
        outdir = self.work / "out"
        result_path = self.work / f"cmd-{i}.json"
        trace_dir = self.work / f"trace-{i}"
        if traced:
            trace_dir.mkdir()
        shutil.rmtree(outdir, ignore_errors=True)
        cmd = [sys.executable, str(HERE / "child.py"), str(SRC), str(result_path),
               str(trace_dir) if traced else "-", "--", *self.argv(outdir)]
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT, text=True,
                                start_new_session=True)
        budget = max(5.0, RUN_DEADLINE_S - (time.monotonic() - self.start))
        try:
            out, _ = proc.communicate(timeout=budget)
        except subprocess.TimeoutExpired:
            out = ""
        finally:
            # The command runs in its own session; on a timeout or a signal
            # to this process, stop it and its pool workers before going on.
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
        sys.stderr.write(out)
        res = None
        if proc.returncode == 0 and result_path.exists():
            res = json.loads(result_path.read_text(encoding="utf-8"))
        self.tally("command", res is not None and res["exit_code"] == 0,
                   f"child exit {proc.returncode}")
        if res is None or res["exit_code"] != 0:
            return None
        # Every command writes to the same directory, so a deterministic
        # program writes the same bytes each time.
        prints = fingerprint(outdir) if outdir.is_dir() else {}
        known = [k for k, (_, kept) in enumerate(self.kept) if kept == prints]
        res["outputs"] = known[0] if known else len(self.kept)
        res["first_of_set"] = not known
        if not known:
            keep = self.work / f"kept-{len(self.kept)}"
            outdir.rename(keep) if outdir.is_dir() else keep.mkdir()
            self.kept.append((keep, prints))
        if traced:
            res["spans"] = load_spans(str(trace_dir))
        return res

    def verify(self, cmds: list[dict]) -> list[dict]:
        """Check each kept output set and tally the checks for every command.

        A command whose outputs equal an earlier command's set that passed
        every check counts one operation, ``same_outputs``; any other command
        counts every check of its set.  Returns the commands whose outputs
        could be read, with the figures derived from them.
        """
        results = []
        for outdir, _ in self.kept:
            try:
                doc = json.loads((outdir / "report.json").read_text(encoding="utf-8"))
            except (OSError, ValueError) as exc:
                results.append(([("report_json", False, f"{type(exc).__name__}: {exc}")], None))
                continue
            derived = {"cells": len(doc["results"]), "modes_paired": modes_paired(doc),
                       "report_json_bytes": (outdir / "report.json").stat().st_size}
            results.append((self.check(outdir, doc), derived))
            del doc
        done = []
        for cmd in cmds:
            checks, derived = results[cmd.pop("outputs")]
            if all(ok for _, ok, _ in checks) and not cmd.pop("first_of_set"):
                checks = [("same_outputs", True, "files equal to a checked set")]
            for name, ok, detail in checks:
                self.tally(name, ok, detail)
            if derived is not None:
                done.append({**cmd, **derived})
        return done

    def check(self, outdir: Path, doc: dict) -> list[tuple]:
        checks = check_outputs(str(outdir), doc, self.levels, self.runs, METHODS)
        if self.workload == "campaign_j2":
            checks.append(("serial_parity", *guarded(self.serial_parity, doc)))
        if self.workload == "report_full":
            checks.append(("round_trip", *guarded(self.round_trip, doc)))
        return checks

    def serial_parity(self, doc: dict):
        """A few pool cells recomputed serially with run_single on the set-up records."""
        from omabench.harness import CampaignConfig, run_single
        cfg = CampaignConfig.from_dict(self.config)
        pooled = {(r["beam_id"], r["nl_index"], r["run_index"]): r for r in doc["results"]}
        cells = random.Random(self.seed).sample(sorted(pooled), PARITY_CELLS)
        differing = []
        for beam, nl, run in cells:
            serial = run_single(self.artifacts[beam], cfg, nl, run)
            for name, mr in serial.methods.items():
                pm = pooled[(beam, nl, run)]["methods"][name]
                same = (mr.failed == pm["failed"]
                        and len(mr.identified_frequencies) == len(pm["identified_frequencies"])
                        and all(close(a, b) for a, b in zip(mr.identified_frequencies,
                                                            pm["identified_frequencies"]))
                        and all(o.identified == p["identified"] and close(o.frequency, p["frequency"])
                                and close(o.mac, p["mac"]) for o, p in zip(mr.modes, pm["modes"])))
                if not same:
                    differing.append(f"{beam}/{nl}/{run}/{name}")
        return not differing, f"cells {cells}: differing {differing or 'none'}"

    def round_trip(self, doc: dict):
        with open(self.input, encoding="utf-8") as fh:
            same = json.load(fh)["results"] == doc["results"]
        return same, f"{len(doc['results'])} results " + ("round-trip" if same else "changed")


def fingerprint(outdir: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(outdir.iterdir())}


def measure(run: Run, seconds: float, traced: bool, after_first=None) -> list[dict]:
    """Whole commands whose summed wall time comes nearest to ``seconds``.

    Another command starts only while half of a mean command still fits;
    at least one always runs.  ``after_first`` is called after the first.
    """
    done, spent = [], 0.0
    while not done or spent + 0.5 * spent / len(done) < seconds:
        res = run.command(traced)
        if res is None:
            break
        done.append(res)
        spent += res["wall_s"]
        if len(done) == 1 and after_first is not None:
            after_first()
    return done


def end_to_end(run: Run, seconds: float) -> dict:
    # Three set-up passes, before the first command, after it and after
    # the last, so that their median follows the host over the whole run.
    setups = [run.setup()]
    cmds = measure(run, seconds, traced=False,
                   after_first=lambda: setups.append(run.setup()))
    if not cmds:
        return {}
    setups.append(run.setup())
    cmds = run.verify(cmds)
    if not cmds:
        return {}
    # The host's speed drifts from one command to the next, so the timings
    # are taken over all of the run's commands: throughput over their summed
    # wall time and their mean CPU time.
    return {
        "setup_s": (statistics.median(setups), "s"),
        "runs_per_s": (sum(c["cells"] for c in cmds) / sum(c["wall_s"] for c in cmds),
                       "runs/s"),
        "cpu_s": (statistics.fmean(c["cpu_s"] for c in cmds), "s"),
        "peak_rss_mb": (statistics.median(c["peak_rss_mb"] for c in cmds), "MB"),
        "modes_paired": (statistics.median(c["modes_paired"] for c in cmds), "count"),
    }


def per_layer(run: Run, seconds: float) -> dict:
    if run.workload == "campaign_j2":
        run.setup()
    plain = run.command(traced=False)
    traced = measure(run, seconds, traced=True)
    if plain is None or not traced:
        return {}
    done = run.verify([plain, *traced])
    if len(done) != 1 + len(traced):
        return {}
    plain, traced = done[0], done[1:]
    values: dict[str, list[float]] = {}
    for cmd in traced:
        calls, self_s, durations = self_times(cmd["spans"])
        single = [d * 1e3 for d in durations.get("harness.run_single", [])]
        row = {"harness.run_single.p50_ms": statistics.median(single) if single else 0.0,
               f"harness.run_single.p{TAIL_PERCENTILE}_ms":
                   percentile(single, TAIL_PERCENTILE) if single else 0.0,
               "harness.report_json_bytes": cmd["report_json_bytes"],
               "trace.overhead_s": cmd["wall_s"] - plain["wall_s"]}
        for name, unit in per_layer_names():
            if name.endswith(".calls"):
                row[name] = calls.get(name[:-len(".calls")], 0)
            elif name.endswith(".self_s"):
                row[name] = self_s.get(name[:-len(".self_s")], 0.0)
        for name, v in row.items():
            values.setdefault(name, []).append(v)
    return {name: (statistics.median(values[name]), unit) for name, unit in per_layer_names()}


def host_facts(import_s: float) -> str:
    import numpy
    import scipy
    blas = ",".join(f"{v}={os.environ[v]}" for v in BLAS_THREAD_VARS)
    return (f"host: cores={os.cpu_count()} python={platform.python_version()} "
            f"numpy={numpy.__version__} scipy={scipy.__version__} {blas} "
            f"bench_jobs={CAMPAIGN_JOBS} omabench_import_s={import_s:.3f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so the running command is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "omabench" / "cli.py").is_file():
        print(f"perfbench: no omabench sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import omabench  # noqa: F401
    import_s = time.perf_counter() - t0
    print(host_facts(import_s))

    run = Run(args.workload, args.seed)
    try:
        run.prepare()
        metrics = (per_layer if args.trace else end_to_end)(run, args.seconds)
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run still uses it
            pass
    if not metrics:
        print("perfbench: no command completed", file=sys.stderr)
        return 1
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
