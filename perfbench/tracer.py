"""Span tracer for the traced benchmark run.

The tracer wraps public omabench functions from outside, in every module
namespace that holds them, so calls the program makes through those names
are recorded.  A span holds its id, name, start, end and parent id; spans
stay in memory and are written to ``spans-<pid>.json`` in the trace
directory when the process ends its command.  Pool workers started by
``fork`` inherit the wrappers; each worker clears the inherited spans and
writes its own file when it exits.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import multiprocessing.util
import os
import time
from collections import defaultdict

# Layer -> functions timed in the traced run, named <module>.<function>.
TARGETS = {
    "harness": ("run_campaign", "run_single", "simulate_beam", "summarize_and_tables"),
    "beam": ("assemble_model", "modal_analysis", "transient_response"),
    "noise": ("corrupt",),
    "dsp": ("csd_matrix", "psd"),
    "freqdom": ("pp_identify", "fdd_identify", "pp_shape_at", "fdd_shape_at",
                "write_curve_csv"),
    "ssi": ("build_hankel", "stabilization", "realize_modes", "clip_to_passband"),
    "metrics": ("pair_to_reference", "mac"),
    "cli": ("run_cli",),
}
REPORT_METHODS = ("to_json", "from_json", "mac_statistics", "runs_for", "worst_run")


def span_names() -> list[str]:
    names = [f"{mod}.{fn}" for mod, fns in TARGETS.items() for fn in fns]
    return names + [f"harness.BenchmarkReport.{m}" for m in REPORT_METHODS]


class Tracer:
    """Records nested call spans of the wrapped functions in this process."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._ids = itertools.count()

    def wrap(self, name: str, fn):
        spans, stack, ids = self.spans, self._stack, self._ids
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, name, t0, t1, parent))
        return traced

    def install(self) -> None:
        """Replace every reference to a target function in the omabench modules."""
        mods = {m: importlib.import_module(f"omabench.{m}") for m in TARGETS}
        namespaces = list(mods.values()) + [importlib.import_module("omabench")]
        for mod, fns in TARGETS.items():
            for fn_name in fns:
                original = getattr(mods[mod], fn_name)
                wrapped = self.wrap(f"{mod}.{fn_name}", original)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            setattr(ns, attr, wrapped)
        cls = mods["harness"].BenchmarkReport
        for meth in REPORT_METHODS:
            raw = vars(cls)[meth]
            name = f"harness.BenchmarkReport.{meth}"
            if isinstance(raw, classmethod):
                setattr(cls, meth, classmethod(self.wrap(name, raw.__func__)))
            else:
                setattr(cls, meth, self.wrap(name, raw))
        multiprocessing.util.register_after_fork(self, Tracer._arm_worker_dump)

    def _arm_worker_dump(self) -> None:
        # Runs in a multiprocessing child before it does any work: drop the
        # spans inherited from the parent, then dump this worker's own spans
        # from a finalizer that fires when the worker exits normally.
        del self.spans[:]
        del self._stack[:]
        multiprocessing.util.Finalize(None, self.dump, exitpriority=100)

    def dump(self) -> None:
        path = os.path.join(self.out_dir, f"spans-{os.getpid()}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"pid": os.getpid(), "spans": self.spans}, fh)


def load_spans(out_dir: str) -> list[tuple]:
    """All spans written in ``out_dir``, as ``(pid, id, name, start, end, parent)``."""
    spans = []
    for entry in sorted(os.listdir(out_dir)):
        if entry.startswith("spans-") and entry.endswith(".json"):
            with open(os.path.join(out_dir, entry), encoding="utf-8") as fh:
                doc = json.load(fh)
            spans.extend((doc["pid"], *s) for s in doc["spans"])
    return spans


def self_times(spans: list[tuple]) -> tuple[dict, dict, dict]:
    """Per span name: call count, summed self time [s], inclusive durations [s].

    Self time is a span's duration minus the durations of its direct
    children, which never overlap because each process records one thread.
    """
    covered: dict = defaultdict(float)
    for pid, _sid, _name, t0, t1, parent in spans:
        if parent >= 0:
            covered[(pid, parent)] += t1 - t0
    calls: dict = defaultdict(int)
    self_s: dict = defaultdict(float)
    durations: dict = defaultdict(list)
    for pid, sid, name, t0, t1, _parent in spans:
        calls[name] += 1
        self_s[name] += (t1 - t0) - covered[(pid, sid)]
        durations[name].append(t1 - t0)
    return calls, self_s, durations
