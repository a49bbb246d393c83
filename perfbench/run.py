"""Run one protprompt benchmark workload and print its metrics.

    python3 perfbench/run.py --workload pretrain|inject|eval --seed N \
        --seconds S --trace 0|1

Run from any directory; the repository root is the parent of this file's
directory, and the package is imported from its `src/`. The run sets up
the inputs in-process for its jobs, and one untimed job warms the process
up. The timed phase then repeats the same CLI job until the next one would
overrun --seconds, and at least until the jobs have given MIN_SAMPLES step
samples; after each job, outside the timed region, the outputs are
checked. Last, SETUPS more set-ups are timed, each in a fresh process so
that it pays every import, and each must reproduce the inputs byte for
byte. Times are in reference-host seconds (see hostclock.py).

--trace 0 prints the end-to-end metrics; --trace 1 spends half the budget
on untraced jobs and half on jobs with every public protprompt function
wrapped, and prints the per-layer metrics, tracing overhead included.
Every metric is printed as `name value unit`; the last line is one JSON
object {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

BLAS_THREADS = 1
SETUPS = 5  # fresh-process set-ups timed per run
MIN_SAMPLES = 100  # step samples per run, so that p90 has ten beyond it
DEFAULT_SEED = 1

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("step_ms_p50", "ms"),
    ("step_ms_p90", "ms"),
    ("seqs_per_s", "seq/s"),
    ("loss_last", "nats"),
    ("peak_rss_mb", "MB"),
]


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=("pretrain", "inject", "eval"))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny shrinks every input, for the benchmark's own tests")
    p.add_argument("--setup-into", type=Path, metavar="DIR",
                   help="only set up into DIR and print the seconds it took, imports "
                        "included; the run starts one such process per timed set-up")
    return p.parse_args(argv)


def import_package():
    """Import protprompt from this checkout's src/ and return its modules."""
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(ROOT))
    from perfbench.hooks import load_package

    pp = load_package()
    package = sys.modules["protprompt"]
    if Path(package.__file__).resolve().parent != SRC / "protprompt":
        raise ImportError(f"protprompt imported from {package.__file__}, not {SRC}")
    return pp


def setup_only(args) -> int:
    """One set-up, timed from before the first numpy import."""
    t0 = time.perf_counter()
    pp = import_package()
    from perfbench.workloads import WORKLOADS

    args.setup_into.mkdir(parents=True)
    ops = WORKLOADS[args.workload](args.size).setup(pp, args.setup_into, args.seed)
    print(json.dumps({"seconds": time.perf_counter() - t0, "ops": ops}))
    return 0


def environment(np) -> dict:
    import scipy

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_set": BLAS_THREADS,
    }


def dir_digest(path: Path) -> str:
    import hashlib

    h = hashlib.sha256()
    for f in sorted(p for p in path.rglob("*") if p.is_file()):
        h.update(str(f.relative_to(path)).encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


class Runner:
    """One run: set-ups, jobs and checks, and every operation tried."""

    def __init__(self, args, work: Path, pp, clock):
        from perfbench.workloads import WORKLOADS

        self.args = args
        self.work = work
        self.pp = pp
        self.clock = clock
        self.workload = WORKLOADS[args.workload](args.size)
        self.ops: list = []  # (operation, failure message)
        self.jobs: list = []
        self.setup_times: list[float] = []
        self.inputs = work / "inputs"
        self.inputs.mkdir(parents=True)
        self.ops += self.workload.setup(pp, self.inputs, args.seed)

    def check_reproduces(self, target: Path) -> None:
        same = dir_digest(target) == dir_digest(self.inputs)
        self.ops.append(("set-up reproduces the inputs", "" if same else "inputs differ"))
        shutil.rmtree(target)

    def timed_setups(self) -> None:
        """SETUPS set-ups, each in a fresh process and scaled by the host's
        speed just before and just after it."""
        from perfbench.hostclock import speed

        a = self.args
        for k in range(SETUPS):
            target = self.work / f"setup{k}"
            before = speed()
            try:
                proc = subprocess.run(
                    [sys.executable, str(Path(__file__).resolve()), "--workload", a.workload,
                     "--seed", str(a.seed), "--size", a.size, "--setup-into", str(target)],
                    capture_output=True, text=True, timeout=120,
                )
            except subprocess.TimeoutExpired:  # run() has killed and reaped it
                self.ops.append(("set-up", "timed out after 120 s"))
                continue
            after = speed()
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                self.ops.append(("set-up", f"exit {proc.returncode}: {proc.stderr[-600:]}"))
                continue
            self.ops += [tuple(op) for op in result["ops"]]
            self.setup_times.append(result["seconds"] * (before + after) / 2)
            self.check_reproduces(target)

    def run_jobs(self, budget: float, probe, tracer=None, min_samples: int = 0) -> list:
        """Repeat the job until the next one would overrun `budget` seconds
        and the jobs have given `min_samples` step samples."""
        jobs, spent = [], 0.0
        while True:
            # one fixed path: the CLI stores paths in its config, which ends
            # up in checkpoints and logs that must match between jobs
            out = self.work / "job"
            self.clock.start(ticking=tracer is None)
            if tracer is not None:
                tracer.install()
            try:
                job = self.workload.job(self.pp, self.inputs, out, self.args.seed, probe)
            finally:
                if tracer is not None:
                    tracer.uninstall()
                self.clock.stop()
            job.scale(self.clock.to_ref)
            self.workload.check(self.pp, self.inputs, out, job)
            shutil.rmtree(out, ignore_errors=True)
            jobs.append(job)
            self.ops += job.ops
            spent += job.raw_wall_s
            samples = sum(len(j.step_ms) for j in jobs)
            if job.failures() or (samples >= min_samples
                                  and spent * (len(jobs) + 1) / len(jobs) > budget):
                break
        self.jobs += jobs
        return jobs

    def finish(self) -> None:
        prints = {j.fingerprint for j in self.jobs}
        self.ops.append(("jobs give identical outputs",
                         "" if len(prints) == 1 else f"{len(prints)} distinct outputs"))


def end_to_end(np, runner, jobs) -> dict:
    samples = np.concatenate([j.step_ms for j in jobs])
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {
        "setup_s": statistics.median(runner.setup_times),
        "wall_s": statistics.median(j.wall_s for j in jobs),
        "step_ms_p50": float(np.percentile(samples, 50)),
        "step_ms_p90": float(np.percentile(samples, 90)),
        "seqs_per_s": sum(j.encodes for j in jobs) / sum(j.encode_s for j in jobs),
        "loss_last": statistics.median(j.loss_last for j in jobs),
        "peak_rss_mb": rss_mb,
    }
    raw = statistics.median(j.raw_wall_s for j in jobs)
    print(f"samples step_ms {samples.size}, jobs {len(jobs)}, set-ups "
          f"{len(runner.setup_times)}; median job {raw:.4g} s unscaled")
    return {name: (values[name], unit) for name, unit in END_TO_END}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "protprompt" / "__init__.py").is_file():
        print(f"error: no protprompt package under {SRC}", file=sys.stderr)
        return 2
    # must precede the first numpy import
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    if args.setup_into is not None:
        return setup_only(args)
    pp = import_package()
    import numpy as np

    from perfbench import layers
    from perfbench.hooks import Probe, Tracer
    from perfbench.hostclock import HostClock

    work = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    clock = HostClock()
    modules = list(vars(pp).values())
    probe = Probe(modules, clock)
    try:
        runner = Runner(args, work, pp, clock)
        probe.install()
        runner.run_jobs(0.0, probe)  # warm-up: the first job in a process is slower
        if not args.trace:
            jobs = runner.run_jobs(args.seconds, probe, min_samples=MIN_SAMPLES)
            runner.timed_setups()
            runner.finish()
            metrics = end_to_end(np, runner, jobs)
        else:
            plain = runner.run_jobs(args.seconds / 2, probe)
            tracer = Tracer(modules)
            traced_inputs = work / "traced_setup"
            traced_inputs.mkdir()
            tracer.install()
            try:
                runner.ops += runner.workload.setup(pp, traced_inputs, args.seed)
            finally:
                tracer.uninstall()
            runner.check_reproduces(traced_inputs)
            setup_stats = {k: list(v) for k, v in tracer.stats.items()}
            tracer.reset()
            traced = runner.run_jobs(args.seconds / 2, probe, tracer)
            runner.finish()
            metrics = layers.compute(
                dict(tracer.stats), dict(tracer.counters), len(traced), setup_stats,
                statistics.median(j.wall_s for j in plain),
                statistics.median(j.wall_s for j in traced),
            )
    finally:
        probe.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    env = environment(np)
    env.update(workload=args.workload, seed=args.seed, trace=args.trace, size=args.size,
               config_hashes={k: v for j in runner.jobs for k, v in j.config_hashes.items()})
    print("env " + json.dumps(env, sort_keys=True))
    failures = [f"{op}: {msg}" for op, msg in runner.ops if msg]
    for line in failures:
        print(f"FAILED {line}", file=sys.stderr)
    print(f"fail_ratio {len(failures) / len(runner.ops):.6g} ({len(failures)}/{len(runner.ops)})")
    out = {}
    for name, (value, unit) in metrics.items():
        if value is None or value != value:  # not measured, or NaN
            continue
        print(f"{name} {value:.6g} {unit}")
        out[name] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": not failures,
        "attempted": len(runner.ops),
        "failed": len(failures),
        "metrics": out,
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
