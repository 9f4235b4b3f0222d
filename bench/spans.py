"""In-memory spans around the public functions of ``mphd``.

The tracer wraps functions from the benchmark's side; nothing under ``src/``
changes. A wrapper must replace every name a caller looks up, so ``install``
rebinds each wrapped function wherever it appears in a loaded ``mphd``
module (``synth`` imports ``matcore`` names, ``mphd/__init__`` re-exports
everything) and in the ``COMMANDS`` table of ``mphd.cli``.
"""

from __future__ import annotations

import functools
import json
import os
import subprocess
import sys
import time
from collections import defaultdict

#: module -> public functions that get a span, with the end-to-end metric each should move.
TRACED = {
    "modes": ["flip_mode_basis", "detection_setup"],
    "cluster": ["cluster_unitary", "solve_a", "symmetric_x"],
    "synth": ["feasibility", "solve_exact", "enumerate_solutions", "verify_solution", "solve_approx"],
    "matcore": ["procrustes_best_orthogonal"],
    "mbqc": ["build_u_tf"],
    "gsim": ["simulate_mphd", "apply", "homodyne_measure", "export_samples_csv", "run_gate_program"],
    "cli": ["run", "cmd_synthesize", "cmd_cluster", "cmd_gate", "cmd_simulate"],
}

#: work counts, each filled from a wrapped call's arguments and result.
COUNTS = {
    "synth.branches": "count",
    "synth.solve_approx.iterations": "count",
    "synth.solve_approx.converged": "count",
    "gsim.samples": "count",
    "gsim.csv_bytes": "B",
    "cli.report_bytes": "B",
    "cli.interpreter_start_s": "s",
}


def _out_path(argv):
    argv = list(argv or [])
    return argv[argv.index("--out") + 1] if "--out" in argv else None


def _count(name, counts, args, result):
    if name == "synth.enumerate_solutions":
        counts["synth.branches"] += len(result)
    elif name == "synth.solve_exact":
        counts["synth.branches"] += 1
    elif name == "synth.solve_approx":
        counts["synth.solve_approx.iterations"] += result.iterations
        counts["synth.solve_approx.converged"] += int(result.converged)
    elif name == "gsim.simulate_mphd":
        counts["gsim.samples"] += result.outcomes.size
    elif name == "gsim.export_samples_csv":
        counts["gsim.csv_bytes"] += os.path.getsize(args[1])
    elif name == "cli.run":
        out = _out_path(args[0] if args else None)
        if out and os.path.exists(out):
            counts["cli.report_bytes"] += os.path.getsize(out)


class Tracer:
    """Spans (name, start, end, parent, job) kept in memory until ``dump``."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.job = -1
        self._patched: list[tuple[dict, str, object]] = []

    def span(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, self.stack[-1] if self.stack else -1, self.job])
            self.stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.stack.pop()
                self.spans[idx][2] = time.perf_counter()
            _count(name, self.counts, args, result)
            return result
        return wrapper

    def install(self) -> None:
        modules = [mod for key, mod in sys.modules.items() if key == "mphd" or key.startswith("mphd.")]
        for short, names in TRACED.items():
            home = sys.modules.get(f"mphd.{short}")
            if home is None:
                continue
            for fname in names:
                original = getattr(home, fname)
                wrapper = self.span(f"{short}.{fname}", original)
                tables = [vars(mod) for mod in modules]
                if short == "cli":
                    tables.append(home.COMMANDS)
                for table in tables:
                    for key, value in list(table.items()):
                        if value is original:
                            self._patched.append((table, key, original))
                            table[key] = wrapper

    def uninstall(self) -> None:
        for table, key, original in reversed(self._patched):
            table[key] = original
        self._patched.clear()

    def snapshot(self):
        return len(self.spans), dict(self.counts)

    def layer_totals(self, start: int = 0, end: int | None = None):
        """calls, busy and self seconds per span name over spans[start:end].

        Self time is a span's duration minus the time its direct children
        cover; spans nest because the workload is one thread.
        """
        spans = self.spans[start:end]
        child_time = defaultdict(float)
        for name, t0, t1, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        totals = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, t0, t1, _, _) in enumerate(spans, start=start):
            if name.startswith("job."):
                continue
            acc = totals[name]
            acc[0] += 1
            acc[1] += t1 - t0
            acc[2] += t1 - t0 - child_time[i]
        return totals

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def interpreter_start(env, cwd, repeats: int = 5) -> float:
    """Median wall time of a child interpreter running ``import mphd.cli``."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import mphd.cli"], env=env, cwd=cwd, check=True, timeout=120)
        times.append(time.perf_counter() - t0)
    return sorted(times)[len(times) // 2]
