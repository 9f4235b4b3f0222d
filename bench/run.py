"""Benchmark of mphd: compile, approx, verify and cli workloads.

Run from the root of a checkout:

    python3 bench/run.py --workload compile --seed 1 --seconds 25 --trace 0

Each run imports ``mphd`` from ``src/`` of the checkout, builds its inputs
from ``--seed``, sets up the program side, then runs whole passes through
the workload's fixed job list (a closed loop: one client, one job at a time)
until ``--seconds`` have passed and at least 100 jobs ran. Every job's output
is checked against independent computations. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and the
metrics (end-to-end with ``--trace 0``, per-layer with ``--trace 1``).
End-to-end times are scaled to a nominal host speed (``HostSpeed``); the
times as measured go to standard error.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread for this process and every child it starts: with two
# threads on two cores the same call spreads much wider from run to run.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
MIN_JOBS = 100
SETUP_REPEATS = 7
# The host-speed reference: a fixed task timed between jobs (see HostSpeed).
REF_EVERY_S = 0.4
REF_NOMINAL_S = 0.0135

END_TO_END = {"wall_s": "s", "job_p50_s": "s", "job_p90_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("MPHD_LOG", None)
    return env


def import_seconds(env, repeats: int = SETUP_REPEATS, host=None) -> float:
    """Median time of ``import mphd`` in fresh child interpreters.

    One untimed child runs first, so the timed imports read a warm file cache.
    """
    code = "import time; t = time.perf_counter(); import mphd; print(time.perf_counter() - t)"
    subprocess.run([sys.executable, "-c", "import mphd"], env=env, cwd=ROOT, check=True, timeout=120)
    times = []
    for _ in range(repeats):
        out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True, timeout=120,
                             capture_output=True, text=True).stdout
        times.append(float(out.strip().splitlines()[-1]))
        if host is not None:
            host.sample()
    return statistics.median(times)


def load_mphd():
    sys.path.insert(0, str(SRC))
    import mphd
    import mphd.cli  # noqa: F401  (the traced cli run calls mphd.cli.run in process)

    if Path(mphd.__file__).resolve().parent != (SRC / "mphd").resolve():
        raise SystemExit(f"bench: imported mphd from {mphd.__file__}, not from {SRC}")
    return mphd


class HostSpeed:
    """A fixed task, independent of mphd, timed between the jobs of an untraced run.

    The host is shared, and its speed drifts by 10-30 % over tens of seconds.
    Interpreter loops, small and medium BLAS calls, the optimizer and child
    interpreters slow and speed up together, and the drift lasts longer than
    a run, so no statistic inside one run removes it. (Large least-squares
    solves follow the host's fast phases much less, so there the scaling
    over-corrects; bench/README.md gives the figures.)
    Untraced end-to-end times are therefore scaled by
    ``REF_NOMINAL_S / median reference time`` of the run: they read as seconds
    on a host that runs the reference in ``REF_NOMINAL_S``. The reference
    runs no mphd code, so a change to the program moves the scaled times by
    the same factor as the measured ones.

    The reference mixes the two kinds of work the workloads do: a loop of
    small complex matrix products (interpreter-bound, like the optimizer's
    line search) and medium BLAS, ``eigh``, sampling and sorting (like the
    graph constructions and simulations).
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.small = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        self.medium = rng.normal(size=(128, 128))
        self.sym = self.medium[:64, :64] + self.medium[:64, :64].T
        self.times: list = []
        self.last = -float("inf")

    def sample(self) -> None:
        a, acc = self.small, 0.0
        t0 = time.perf_counter()
        for _ in range(500):
            acc += float(np.linalg.norm(a @ a - a))
        rng = np.random.default_rng(1)
        for _ in range(6):
            acc += float((self.medium @ self.medium)[0, 0] + np.linalg.eigh(self.sym)[0][0])
            acc += float(np.sort(rng.normal(size=20000))[0])
        self.last = time.perf_counter()
        self.times.append(self.last - t0)

    def due(self) -> None:
        """Sample when ``REF_EVERY_S`` have passed since the last sample."""
        if time.perf_counter() - self.last >= REF_EVERY_S:
            self.sample()

    @property
    def scale(self) -> float:
        return REF_NOMINAL_S / statistics.median(self.times)


@dataclass
class Phase:
    cycle_times: list = field(default_factory=list)
    job_times: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)

    @property
    def wall(self) -> float:
        return statistics.median(self.cycle_times)


def run_cycles(wl, ctx, seed, first_cycle, budget_s, min_jobs, tracer=None, host=None) -> Phase:
    """Whole passes through the job list until the budget and job count are met.

    With ``host``, the host-speed reference is sampled between jobs, outside
    the job times.
    """
    phase = Phase()
    start = time.perf_counter()
    index = first_cycle
    while True:
        jobs = wl.cycle(ctx, np.random.default_rng([seed, 1, index]))
        index += 1
        total = 0.0
        for job in jobs:
            call = job.call
            if tracer is not None:
                tracer.job += 1
                call = tracer.span(f"job.{job.group}", call)
            t0 = time.perf_counter()
            try:
                out, err = call(), None
            except Exception as exc:  # a failing operation is counted, not fatal
                out, err = None, exc
            dt = time.perf_counter() - t0
            if err is None:
                try:
                    job.check(out)
                except Exception as exc:
                    err = exc
            phase.attempted += 1
            phase.job_times.append(dt)
            total += dt
            if err is not None:
                phase.failed += 1
                if job.fault is None:
                    phase.errors.append(f"{job.group}: {type(err).__name__}: {err}")
            if host is not None:
                host.due()
        phase.cycle_times.append(total)
        if time.perf_counter() - start >= budget_s and phase.attempted >= min_jobs:
            return phase


def make_workload(name, mphd, workdir, env, in_process, sizes=None):
    cls = WORKLOADS[name]
    kwargs = {"env": env, "in_process": in_process} if name == "cli" else {}
    return cls(mphd, workdir, sizes=sizes, **kwargs)


def setup_repeated(wl, inputs, repeats, host=None):
    times, ctx = [], None
    for _ in range(repeats):
        t0 = time.perf_counter()
        ctx = wl.setup(inputs)
        times.append(time.perf_counter() - t0)
        if host is not None:
            host.sample()
    return ctx, statistics.median(times)


def peak_rss_mb(name) -> float:
    who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def run_workload(name, seed, seconds, trace, sizes=None, min_jobs=MIN_JOBS, setup_repeats=SETUP_REPEATS):
    """One benchmark run; returns the result object that ``main`` prints."""
    if not (SRC / "mphd" / "__init__.py").is_file():
        raise SystemExit(f"bench: no mphd sources under {SRC}; run from the root of a checkout")
    env = child_env()
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT)
    try:
        host = None if trace else HostSpeed()
        import_s = import_seconds(env, setup_repeats, host)
        mphd = load_mphd()
        # the traced cli run calls mphd.cli.run in process; so does its untraced half
        wl = make_workload(name, mphd, workdir, env, in_process=bool(trace), sizes=sizes)
        inputs = wl.inputs(np.random.default_rng([seed, 0]))
        ctx, setup_s = setup_repeated(wl, inputs, setup_repeats, host)
        wl.cycle(ctx, np.random.default_rng([seed, 2]))[0].call()  # warm-up job, untimed
        if not trace:
            phase = run_cycles(wl, ctx, seed, 0, seconds, min_jobs, host=host)
            measured = {
                "wall_s": phase.wall,
                "job_p50_s": float(np.percentile(phase.job_times, 50)),
                "job_p90_s": float(np.percentile(phase.job_times, 90)),
                "setup_s": import_s + setup_s,
            }
            print(f"bench: host-speed scale {host.scale:.4f} from {len(host.times)} reference samples; measured "
                  + " ".join(f"{key} {value:.6g}" for key, value in measured.items()), file=sys.stderr)
            metrics = {key: host.scale * value for key, value in measured.items()}
            metrics["peak_rss_mb"] = peak_rss_mb(name)
            units = END_TO_END
            phases = [phase]
        else:
            metrics, units, phases = traced_run(name, wl, ctx, inputs, seed, seconds, min_jobs, env, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    errors = [e for p in phases for e in p.errors]
    for line in errors[:10]:
        print(f"bench: unexpected failure: {line}", file=sys.stderr)
    return {
        "correct": not errors,
        "attempted": sum(p.attempted for p in phases),
        "failed": sum(p.failed for p in phases),
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }


def traced_run(name, wl, ctx, inputs, seed, seconds, min_jobs, env, workdir):
    """Half the budget untraced, then one traced set-up and traced passes.

    Per-layer values are for one set-up plus one pass through the job list:
    the traced set-up's totals plus the traced passes' totals divided by
    their number.
    """
    from spans import COUNTS, TRACED, Tracer, interpreter_start

    plain = run_cycles(wl, ctx, seed, 0, seconds / 2, min_jobs // 2)
    tracer = Tracer()
    tracer.install()
    try:
        wl.setup(inputs)
        mark, setup_counts = tracer.snapshot()
        traced = run_cycles(wl, ctx, seed, len(plain.cycle_times), seconds / 2, min_jobs // 2, tracer)
    finally:
        tracer.uninstall()
    cycles = len(traced.cycle_times)
    in_setup, in_cycles = tracer.layer_totals(0, mark), tracer.layer_totals(mark)
    metrics, units = {}, {}
    for module, names in TRACED.items():
        for fname in names:
            key = f"{module}.{fname}"
            s, c = in_setup.get(key, [0, 0.0, 0.0]), in_cycles.get(key, [0, 0.0, 0.0])
            for i, (suffix, unit) in enumerate((("calls", "count"), ("busy_s", "s"), ("self_s", "s"))):
                metrics[f"{key}.{suffix}"] = s[i] + c[i] / cycles
                units[f"{key}.{suffix}"] = unit
    for key, unit in COUNTS.items():
        metrics[key] = setup_counts.get(key, 0.0) + (tracer.counts.get(key, 0.0) - setup_counts.get(key, 0.0)) / cycles
        units[key] = unit
    if name == "cli":
        metrics["cli.interpreter_start_s"] = interpreter_start(env, workdir)
    metrics.update({"trace.wall_s": traced.wall, "trace.untraced_wall_s": plain.wall,
                    "trace.overhead_s": traced.wall - plain.wall})
    units.update({"trace.wall_s": "s", "trace.untraced_wall_s": "s", "trace.overhead_s": "s"})
    tracer.dump(OUT / f"spans-{name}-{seed}.jsonl")
    return metrics, units, [plain, traced]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
