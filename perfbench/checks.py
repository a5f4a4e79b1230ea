"""Output checks computed apart from omabench.

Every check reads the files a command wrote and compares them with what the
benchmark derives on its own: the configured grid, closed-form
Euler-Bernoulli frequencies from the benchmark's own characteristic roots,
the nominal SNR of each noise level, MACs recomputed from stored shapes and
an independent aggregation of ``report.json``.  Each check returns
``(name, ok, detail)`` and counts as one operation.
"""

from __future__ import annotations

import csv
import math
import os
from collections import defaultdict

from scipy.optimize import brentq

N_MODES = 5
F_WINDOW = 0.05
MAC_THRESHOLD = 0.95
SUPPORTS = ("CF", "SS", "CS", "CC")
# The four standard beams: 1 m steel spans with a 10 mm x 10 mm section.
SPAN_M = 1.0
ELASTIC_MODULUS = 2.0e11
DENSITY = 7850.0
WIDTH_M = HEIGHT_M = 0.01
FE_MAX_EXCESS = 0.02
# Clean records (noise level 0): the (beam, method, mode index) that may go
# unpaired, and the largest SSI frequency error [%].  Over master seeds
# 0-99 with the campaign settings, PP missed the CF fundamental on 49 seeds
# and FDD on 23; no other mode went unpaired.  The worst SSI error was 2.69%
# (CF fundamental, seed 31); a 0.5% limit holds on only 9 of those seeds.
CLEAN_MAY_MISS = {("CF", "PP", 0), ("CF", "FDD", 0)}
SSI_CLEAN_MAX_ERR_PCT = 3.0
SNR_TOL_DB = 0.3
REL_TOL = 1e-9


def _characteristic(support: str, x: float) -> float:
    """Frequency equations divided by cosh so they stay finite."""
    if support == "CF":
        return math.cos(x) + 1.0 / math.cosh(x)
    if support == "CC":
        return math.cos(x) - 1.0 / math.cosh(x)
    return math.sin(x) - math.cos(x) * math.tanh(x)  # CS: tan x = tanh x


def lambda_roots(support: str, n: int) -> list[float]:
    """First ``n`` roots lambda*L of the continuous beam's frequency equation."""
    if support == "SS":
        return [k * math.pi for k in range(1, n + 1)]
    roots, x, step = [], 0.5, 0.01
    g0 = _characteristic(support, x)
    while len(roots) < n:
        g1 = _characteristic(support, x + step)
        if g0 * g1 < 0:
            roots.append(brentq(lambda t: _characteristic(support, t), x, x + step,
                                xtol=1e-14))
        x, g0 = x + step, g1
    return roots


def euler_bernoulli_hz(support: str, n: int) -> list[float]:
    ei = ELASTIC_MODULUS * WIDTH_M * HEIGHT_M ** 3 / 12.0
    rho_a = DENSITY * WIDTH_M * HEIGHT_M
    coef = math.sqrt(ei / rho_a) / (2.0 * math.pi * SPAN_M ** 2)
    return [lam * lam * coef for lam in lambda_roots(support, n)]


def level_tag(level: float) -> str:
    return repr(float(level))


def nominal_snr_db(level: float) -> float:
    return math.inf if level == 0 else -20.0 * math.log10(level)


def mac(a, b) -> float:
    num = sum(x * y for x, y in zip(a, b)) ** 2
    return min(num / (sum(x * x for x in a) * sum(y * y for y in b)), 1.0)


def close(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b)) + 1e-12


def _cell(text: str):
    return None if text == "-" else float(text)


def expected_files(levels) -> set[str]:
    names = {"report.json", "config_resolved.json", "table_err.csv"}
    for b in SUPPORTS:
        names |= {f"table_freq_{b}.csv", f"table_mac_{b}.csv"}
        for level in levels:
            tag = level_tag(level)
            names.add(f"anpsd_{b}_{tag}.csv")
            names |= {f"modeshape_{b}_{k}_{tag}.csv" for k in range(1, N_MODES + 1)}
    return names


def modes_paired(doc: dict) -> int:
    """(run, method, reference mode) triples paired at MAC >= threshold."""
    return sum(1 for r in doc["results"] for m in r["methods"].values()
               for o in m["modes"] if o["identified"] and o["mac"] >= MAC_THRESHOLD)


class Aggregate:
    """The benchmark's own min/mean/std, worst run and mean-error tables."""

    def __init__(self, doc: dict, levels, methods):
        self.levels = list(levels)
        cells = defaultdict(list)
        for r in doc["results"]:
            cells[(r["beam_id"], r["nl_index"])].append(r)
        self.cells = cells
        sel = "PP" if "PP" in methods else methods[0]
        self.worst = {key: min(runs, key=lambda r: (min(o["mac"] for o in
                                                        r["methods"][sel]["modes"]),
                                                    r["run_index"]))
                      for key, runs in cells.items()}

    def stats(self, beam: str, nl: int, method: str, k: int):
        macs = [r["methods"][method]["modes"][k]["mac"] for r in self.cells[(beam, nl)]]
        mean = math.fsum(macs) / len(macs)
        std = math.sqrt(math.fsum((x - mean) ** 2 for x in macs) / len(macs))
        return min(macs), mean, std

    def worst_mode(self, beam: str, nl: int, method: str, k: int) -> dict:
        return self.worst[(beam, nl)]["methods"][method]["modes"][k]

    def mean_error(self, beam: str, method: str, k: int):
        errs = [self.worst_mode(beam, nl, method, k)["rel_err_pct"]
                for nl in range(len(self.levels))
                if self.worst_mode(beam, nl, method, k)["identified"]]
        return math.fsum(errs) / len(errs) if errs else None


def _read_rows(path: str) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))[1:]


def _check_cells(doc, levels, runs, methods):
    want = sorted((b, nl, run) for b in SUPPORTS for nl, level in enumerate(levels)
                  for run in range(1 if level == 0 else runs))
    got = sorted((r["beam_id"], r["nl_index"], r["run_index"]) for r in doc["results"])
    bad = [r for r in doc["results"]
           if sorted(r["methods"]) != sorted(methods)
           or any(len(m["modes"]) != N_MODES for m in r["methods"].values())
           or r["noise_level"] != levels[r["nl_index"]]]
    return (got == want and not bad,
            f"{len(got)} cells for {len(want)} configured, {len(bad)} malformed")


def _check_files(outdir, levels):
    want = expected_files(levels)
    got = set(os.listdir(outdir))
    return got == want, f"{len(got)} files written, {len(want)} expected"


def _check_fe_reference(doc):
    worst = 0.0
    ok = sorted(doc["reference"]) == sorted(SUPPORTS)
    for b in SUPPORTS:
        fe = doc["reference"][b]["frequencies"]
        eb = euler_bernoulli_hz(b, N_MODES)
        ok = ok and len(fe) == N_MODES
        for f, e in zip(fe, eb):
            excess = (f - e) / e
            worst = max(worst, excess)
            ok = ok and -1e-12 <= excess <= FE_MAX_EXCESS
    return ok, f"FE frequencies at most {100 * worst:.3f}% above Euler-Bernoulli"


def _check_snr(doc):
    worst = 0.0
    for r in doc["results"]:
        if r["noise_level"] == 0:
            continue
        nominal = nominal_snr_db(r["noise_level"])
        worst = max([worst] + [abs(db - nominal) for db in r["snr_db"]])
    return worst <= SNR_TOL_DB, f"realized SNR within {worst:.3f} dB of nominal"


def _check_paired(doc):
    bad, n = 0, 0
    for r in doc["results"]:
        ref = doc["reference"][r["beam_id"]]
        for m in r["methods"].values():
            for k, o in enumerate(m["modes"]):
                if not o["identified"]:
                    continue
                n += 1
                fr = ref["frequencies"][k]
                f = o["frequency"]
                recomputed = mac(o["shape"], ref["channel_shapes"][k])
                if (abs(f - fr) > F_WINDOW * fr or o["mac"] < MAC_THRESHOLD
                        or abs(recomputed - o["mac"]) > 1e-9
                        or not close(o["rel_err_pct"], 100.0 * abs(f - fr) / fr)):
                    bad += 1
    return bad == 0, f"{n} paired modes, {bad} outside window or with a wrong MAC"


def _check_noise_free(doc):
    """Clean records: every method pairs all five modes of every beam, and
    SSI stays within SSI_CLEAN_MAX_ERR_PCT of the reference frequencies.

    The one exemption is the clamped-free fundamental for PP and FDD: its
    +-5% window (+-0.41 Hz around 8.2 Hz) is narrower than the 1 Hz line
    spacing of the campaign's 9-segment Welch grid, so a peak method may
    miss it without noise.
    """
    misses, worst = [], 0.0
    for r in doc["results"]:
        if r["noise_level"] != 0:
            continue
        for name, m in r["methods"].items():
            for k, o in enumerate(m["modes"]):
                if not o["identified"]:
                    if (r["beam_id"], name, k) not in CLEAN_MAY_MISS:
                        misses.append(f"{r['beam_id']}/{name}/mode{k + 1}")
                elif name == "SSI":
                    worst = max(worst, o["rel_err_pct"])
    return (not misses and worst <= SSI_CLEAN_MAX_ERR_PCT,
            f"noise-free misses: {misses or 'none'}; worst SSI error {worst:.3f}%")


def _check_tables(outdir, doc, levels, methods):
    agg = Aggregate(doc, levels, methods)
    ok = True
    for b in SUPPORTS:
        mac_rows, freq_rows = [], []
        for nl, level in enumerate(levels):
            snr = nominal_snr_db(level)
            for name in methods:
                modes = [agg.worst_mode(b, nl, name, k) for k in range(N_MODES)]
                freq_rows.append([level_tag(level), snr, name] +
                                 [o["frequency"] if o["identified"] else None for o in modes])
                for k in range(N_MODES):
                    mac_rows.append([level_tag(level), snr, name, k + 1,
                                     *agg.stats(b, nl, name, k), modes[k]["mac"]])
        ok = ok and _table_ok(os.path.join(outdir, f"table_mac_{b}.csv"), mac_rows,
                              text_cols=(0, 2, 3))
        ok = ok and _table_ok(os.path.join(outdir, f"table_freq_{b}.csv"), freq_rows,
                              text_cols=(0, 2))
    err_rows = [[b, name, k + 1, agg.mean_error(b, name, k)]
                for b in SUPPORTS for name in methods for k in range(N_MODES)]
    ok = ok and _table_ok(os.path.join(outdir, "table_err.csv"), err_rows, text_cols=(0, 1, 2))
    return ok, "table_mac/table_freq/table_err " + ("match" if ok else "differ from") + \
        " the independent aggregation"


def _table_ok(path: str, want: list[list], text_cols: tuple[int, ...]) -> bool:
    got = _read_rows(path)
    if len(got) != len(want):
        return False
    for g, w in zip(got, want):
        if len(g) != len(w):
            return False
        for i, (a, b) in enumerate(zip(g, w)):
            if i in text_cols:
                if a != str(b):
                    return False
            elif not close(_cell(a), b):
                return False
    return True


def _check_mac_statistics(doc, levels, methods):
    agg = Aggregate(doc, levels, methods)
    stored = doc["mac_statistics"]
    ok = sorted(stored) == sorted(SUPPORTS)
    for b in SUPPORTS:
        for name in methods:
            for k in range(N_MODES):
                per_level = stored[b][name][k]
                ok = ok and sorted(per_level, key=int) == [str(nl) for nl in range(len(levels))]
                for nl in range(len(levels)):
                    want = agg.stats(b, nl, name, k)
                    got = per_level[str(nl)]
                    ok = ok and all(close(got[key], v) for key, v in
                                    zip(("min", "mean", "std"), want))
    return ok, "report.json mac_statistics " + ("match" if ok else "differ from") + \
        " the independent aggregation"


def guarded(check, *args) -> tuple[bool, str]:
    """Run one check; malformed output fails it instead of stopping the run."""
    try:
        return check(*args)
    except (KeyError, IndexError, TypeError, ValueError, ZeroDivisionError,
            OSError) as exc:
        return False, f"{type(exc).__name__}: {exc}"


def check_outputs(outdir: str, doc: dict, levels, runs: int, methods) -> list[tuple]:
    """Run every workload-independent check on one command's outputs."""
    checks = [
        ("cells", _check_cells, doc, levels, runs, methods),
        ("files", _check_files, outdir, levels),
        ("fe_reference", _check_fe_reference, doc),
        ("snr", _check_snr, doc),
        ("paired_modes", _check_paired, doc),
        ("tables", _check_tables, outdir, doc, levels, methods),
        ("mac_statistics", _check_mac_statistics, doc, levels, methods),
    ]
    if 0.0 in levels:
        checks.append(("noise_free", _check_noise_free, doc))
    return [(name, *guarded(fn, *args)) for name, fn, *args in checks]
