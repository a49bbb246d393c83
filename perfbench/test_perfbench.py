"""Self-tests of the benchmark: seeded inputs, tracer restore, smoke runs."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from perfbench import hooks, hostclock, layers, run, workloads

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_depend_only_on_the_seed(name, tmp_path):
    # no fresh import here: other test modules hold the loaded package
    pp = hooks.load_package()
    digests = {}
    for label, seed in (("a", 5), ("b", 5), ("c", 6)):
        inputs = tmp_path / label
        inputs.mkdir()
        ops = workloads.WORKLOADS[name]("tiny").setup(pp, inputs, seed)
        assert all(not msg for _, msg in ops), ops
        digests[label] = run.dir_digest(inputs)
    assert digests["a"] == digests["b"]
    assert digests["a"] != digests["c"]


def _attributes(modules):
    """Every attribute of the package's modules and of their classes."""
    snap = {}
    for mod in modules:
        for key, obj in vars(mod).items():
            snap[(mod.__name__, key)] = obj
            if isinstance(obj, type) and obj.__module__ == mod.__name__:
                for attr, raw in vars(obj).items():
                    snap[(f"{mod.__name__}.{key}", attr)] = raw
    return snap


def test_tracer_restores_every_attribute(tmp_path):
    pp = hooks.load_package()
    modules = list(vars(pp).values())
    before = _attributes(modules)
    workload = workloads.WORKLOADS["inject"]("tiny")
    workload.setup(pp, tmp_path, 3)
    probe = hooks.Probe(modules, hostclock.HostClock())
    tracer = hooks.Tracer(modules)
    probe.install()
    tracer.install()
    assert pp.numerics.add is not before[("protprompt.numerics", "add")]
    assert pp.cli.build_config is not before[("protprompt.cli", "build_config")]
    try:
        job = workload.job(pp, tmp_path, tmp_path / "traced", 3, probe)
    finally:
        tracer.uninstall()
        probe.uninstall()
    assert not job.failures()
    assert tracer.stats["objectives.train_step"][0] == workload.size["steps"]
    after = _attributes(modules)
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)

    # an untraced job in the same interpreter records no spans
    spans = {k: list(v) for k, v in tracer.stats.items()}
    job = workload.job(pp, tmp_path, tmp_path / "plain", 3, probe)
    assert not job.failures()
    assert {k: list(v) for k, v in tracer.stats.items()} == spans


def test_host_clock_leaves_out_its_kernel():
    clock = hostclock.HostClock()
    clock.start()
    stamps = []
    for _ in range(4):
        stamps.append(time.perf_counter())
        time.sleep(hostclock.TICK_S / 2)
        clock.tick()
    stamps.append(time.perf_counter())
    clock.stop()
    ref = clock.to_ref(stamps)
    assert ref[0] >= 0.0 and all(b > a for a, b in zip(ref, ref[1:]))
    # each kernel run spans two knots at the same reference time
    knots = clock.to_ref(clock._raw)
    assert len(knots) >= 6 and all(knots[i] == knots[i + 1] for i in range(0, len(knots), 2))


def test_benchmark_json_matches_the_metrics():
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [{k: m[k] for k in ("name", "unit", "better")} for m in BENCHMARK["per_layer"]] \
        == layers.definitions()
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_is_correct(name, trace):
    proc = _bench(ROOT, "--workload", name, "--seed", "2", "--seconds", "1",
                  "--trace", trace, "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    section = "per_layer" if trace == "1" else "end_to_end"
    assert sorted(result["metrics"]) == sorted(m["name"] for m in BENCHMARK[section])


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "--workload", "eval", "--seed", "1", "--seconds", "1",
                  "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
