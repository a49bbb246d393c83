"""The three workloads: seeded set-up, one timed CLI job, correctness checks.

A job is a fixed amount of work, so a run repeats it for as long as its
time budget allows and every repetition must give byte-identical outputs.
Jobs are short (a few seconds), so that every run holds several of them.
Each workload drives `protprompt.cli.main` in-process:

- pretrain: `pretrain` with masked-LM plus interaction loss and periodic
  checkpoints, at the README quick-start shape;
- inject: `inject --task ppi`, a new prompt trained into a frozen base
  encoder of the same shape;
- eval: `eval --task ppi` over short proteins, where most rows are
  padding, then `eval --task contact` over long proteins, where the n*n*d
  pair gather of the contact head dominates; default shape.
"""

from __future__ import annotations

import hashlib
import io
import math
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import inputs as gen

BASE_PROMPTS = ("Seq", "IC")
NEW_PROMPT = "PPI"
LOSS_TAIL = 10  # metrics.csv rows averaged into loss_last


@dataclass
class Job:
    """What one timed job measured, plus every operation it attempted.

    The job records raw perf_counter stamps; `scale` turns them into
    reference seconds (see hostclock.py) once the job has ended. `ops`
    holds (operation, failure message); an empty message is a pass.
    """

    cli_spans: list = field(default_factory=list)  # (start, end) of each timed CLI call
    encode_span: tuple = (0.0, 0.0)  # the CLI call that encodes (eval: the ppi phase)
    encodes: int = 0  # ProteinEncoder.encode calls during encode_span
    step_stamps: list = field(default_factory=list)  # train_step returns
    cycle_spans: list = field(default_factory=list)  # contact cycles (eval)
    loss_last: float = math.nan
    config_hashes: dict = field(default_factory=dict)
    fingerprint: str = ""
    pair_logits: list = field(default_factory=list)
    ops: list = field(default_factory=list)
    # filled by scale()
    raw_wall_s: float = 0.0
    wall_s: float = 0.0
    encode_s: float = 0.0
    step_ms: list = field(default_factory=list)

    def failures(self) -> list[str]:
        return [f"{op}: {msg}" for op, msg in self.ops if msg]

    def scale(self, to_ref) -> None:
        """Set the times in reference seconds; `to_ref` maps raw stamps."""
        spans = np.asarray(self.cli_spans)
        self.raw_wall_s = float(np.sum(spans[:, 1] - spans[:, 0]))
        ref = to_ref(spans)
        self.wall_s = float(np.sum(ref[:, 1] - ref[:, 0]))
        start, end = to_ref(self.encode_span)
        self.encode_s = float(end - start)
        if self.step_stamps:
            self.step_ms = list(np.diff(to_ref(self.step_stamps)) * 1000.0)
        elif self.cycle_spans:
            cycles = to_ref(self.cycle_spans)
            self.step_ms = list((cycles[:, 1] - cycles[:, 0]) * 1000.0)


class CheckFailed(Exception):
    pass


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def run_check(ops: list, name: str, fn) -> None:
    """Run one correctness check and record it as an operation."""
    try:
        fn()
        ops.append((name, ""))
    except Exception as exc:  # any error inside a check is that check failing
        ops.append((name, f"{type(exc).__name__}: {exc}"))


def call_cli(pp, argv: list, ops: list) -> tuple[float, float]:
    """Run `protprompt <argv>` in-process with its output captured; record
    a non-zero exit as a failed operation and return its (start, end)
    perf_counter stamps."""
    argv = [str(a) for a in argv]
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with redirect_stdout(buf), redirect_stderr(buf):
            rc = pp.cli.main(argv)
    except Exception:  # an uncaught error is a failed command, not a crash
        rc = -1
        buf.write(traceback.format_exc())
    t1 = time.perf_counter()
    ops.append((f"cli {argv[0]}", "" if rc == 0 else f"exit {rc}: {buf.getvalue()[-600:]}"))
    return t0, t1


def sets(options: dict) -> list[str]:
    out = []
    for key, value in options.items():
        out += ["--set", f"{key}={value}"]
    return out


def file_digest(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def read_log(path: Path):
    """metrics.csv -> (config hash, list of row dicts)."""
    lines = Path(path).read_text().splitlines()
    expect(lines and lines[0].startswith("# config_hash="), f"{path}: no config hash line")
    body = [line for line in lines if not line.startswith("#")]
    header = body[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in body[1:]]
    return lines[0].split("=", 1)[1], rows


def read_records(path: Path):
    """eval --out file -> (config hash, {metric: value})."""
    lines = Path(path).read_text().splitlines()
    expect(lines[0].startswith("# config_hash="), f"{path}: no config hash line")
    expect(lines[1] == "task,metric,value,prompts", f"{path}: unexpected header {lines[1]!r}")
    return lines[0].split("=", 1)[1], {
        line.split(",")[1]: float(line.split(",")[2]) for line in lines[2:]
    }


def check_log(rows: list, steps: int) -> None:
    expect(len(rows) == steps, f"{len(rows)} metrics.csv rows for {steps} steps")
    expect([int(r["step"]) for r in rows] == list(range(steps)), "step column out of order")
    for r in rows:
        for key, value in r.items():
            if key not in ("step", "ms"):
                expect(math.isfinite(float(value)), f"step {r['step']}: {key}={value}")


def loss_tail(rows: list) -> float:
    return float(np.mean([float(r["total"]) for r in rows[-LOSS_TAIL:]]))


def write_base(pp, path: Path, shape: dict, seed: int) -> None:
    """An untrained, seeded encoder saved through checkpoint.save_model."""
    cfg = pp.config.build_config(overrides={**{k: str(v) for k, v in shape.items()},
                                            "seed": str(seed)})
    model = pp.model.ProteinEncoder(pp.model.ModelConfig.from_run_config(cfg), seed=seed)
    pp.checkpoint.save_model(path, model, cfg)


SMALL_SHAPE = {"d": 32, "layers": 2, "heads": 4, "max_len": 64}
TINY_SHAPE = {"d": 8, "layers": 1, "heads": 2, "max_len": 24}


class Pretrain:
    name = "pretrain"
    SIZES = {
        "full": dict(shape=SMALL_SHAPE, proteins=200, lengths=(10, 62), links=2, steps=40),
        "tiny": dict(shape=TINY_SHAPE, proteins=16, lengths=(8, 22), links=2, steps=24),
    }
    TRAIN = {"lr": 0.001, "mlm_reduction": "mean", "checkpoint_every": 5, "keep_last": 3}

    def __init__(self, size: str):
        self.size = self.SIZES[size]

    def setup(self, pp, inputs: Path, seed: int) -> list:
        s = self.size
        rng = np.random.default_rng((seed, 1))
        table = gen.proteins(rng, "p", s["proteins"], *s["lengths"])
        gen.write_fasta(inputs / "corpus.fasta", table)
        # positives only: the CLI samples its own non-interacting pairs
        gen.write_pairs(inputs / "ppi.tsv", gen.hub_graph(rng, list(table), s["links"]))
        return []

    def job(self, pp, inputs: Path, out: Path, seed: int, probe) -> Job:
        s, job = self.size, Job()
        probe.reset()
        span = call_cli(pp, [
            "pretrain", "--fasta", inputs / "corpus.fasta", "--ppi", inputs / "ppi.tsv",
            "--out-dir", out, "--steps", s["steps"], "--seed", seed,
            *sets(s["shape"]), *sets(self.TRAIN),
        ], job.ops)
        job.cli_spans, job.encode_span = [span], span
        job.step_stamps, job.encodes = list(probe.train_returns), probe.encodes
        return job

    def check(self, pp, inputs: Path, out: Path, job: Job) -> None:
        steps = self.size["steps"]

        def log():
            job.config_hashes["pretrain"], rows = read_log(out / "metrics.csv")
            check_log(rows, steps)
            job.loss_last = loss_tail(rows)
            head = float(np.mean([float(r["total"]) for r in rows[:LOSS_TAIL]]))
            expect(job.loss_last < head, f"loss_last {job.loss_last} not below first rows {head}")

        def final():
            _, cfg, state = pp.checkpoint.load_model(out / "final.bin")
            expect(cfg.hash() == job.config_hashes.get("pretrain"), "final.bin config hash")
            expect(int(state["opt.step"]) == steps, f"final.bin at step {state['opt.step']}")
            job.fingerprint = file_digest(out / "final.bin")

        def rolling():
            every, keep = self.TRAIN["checkpoint_every"], self.TRAIN["keep_last"]
            want = {f"ckpt_step{k}.bin" for k in list(range(every, steps + 1, every))[-keep:]}
            got = {p.name for p in out.glob("ckpt_step*.bin")}
            expect(got == want, f"rolling checkpoints {sorted(got)}, expected {sorted(want)}")

        run_check(job.ops, "metrics.csv", log)
        run_check(job.ops, "final.bin reloads", final)
        run_check(job.ops, "rolling checkpoints", rolling)


class Inject:
    name = "inject"
    SIZES = {
        "full": dict(shape=SMALL_SHAPE, proteins=200, lengths=(10, 62), links=2, steps=40),
        "tiny": dict(shape=TINY_SHAPE, proteins=16, lengths=(8, 22), links=2, steps=12),
    }
    LR = 0.002
    UNPLUG_SAMPLE = 8  # sequences compared bitwise between base and injected

    def __init__(self, size: str):
        self.size = self.SIZES[size]

    def setup(self, pp, inputs: Path, seed: int) -> list:
        s = self.size
        rng = np.random.default_rng((seed, 2))
        table = gen.proteins(rng, "q", s["proteins"], *s["lengths"])
        names = list(table)
        edges = gen.hub_graph(rng, names, s["links"])
        gen.write_fasta(inputs / "seqs.fasta", table)
        gen.write_pairs(inputs / "pairs.tsv", edges, gen.non_edges(rng, names, edges, len(edges)))
        write_base(pp, inputs / "base.bin", s["shape"], seed)
        return []

    def job(self, pp, inputs: Path, out: Path, seed: int, probe) -> Job:
        s, job = self.size, Job()
        probe.reset()
        span = call_cli(pp, [
            "inject", "--checkpoint", inputs / "base.bin", "--prompt", NEW_PROMPT,
            "--task", "ppi", "--data", inputs / "pairs.tsv", "--fasta", inputs / "seqs.fasta",
            "--out", out, "--steps", s["steps"], "--lr", self.LR, "--seed", seed,
        ], job.ops)
        job.cli_spans, job.encode_span = [span], span
        job.step_stamps, job.encodes = list(probe.train_returns), probe.encodes
        return job

    def check(self, pp, inputs: Path, out: Path, job: Job) -> None:
        base_path, injected_path = inputs / "base.bin", out / "injected.bin"

        def log():
            job.config_hashes["inject"], rows = read_log(out / "metrics.csv")
            check_log(rows, self.size["steps"])
            job.loss_last = loss_tail(rows)

        def frozen():
            _, base = pp.checkpoint.load_checkpoint(base_path)
            _, injected = pp.checkpoint.load_checkpoint(injected_path)
            expect(f"prompt.{NEW_PROMPT}" in injected, "injected.bin lacks the new prompt")
            encoder = [k for k in base if k.startswith(("embed.", "layer"))]
            expect(encoder, "base.bin has no encoder entries")
            for key in encoder:
                expect(injected[key].tobytes() == base[key].tobytes(), f"{key} changed")
            job.fingerprint = file_digest(injected_path)

        def unplugged():
            base, cfg, _ = pp.checkpoint.load_model(base_path)
            injected, _, _ = pp.checkpoint.load_model(injected_path)
            table = pp.data.parse_fasta(inputs / "seqs.fasta")
            for name in sorted(table)[: self.UNPLUG_SAMPLE]:
                seq = pp.tokenizer.encode(table[name], cfg.max_len, name)
                a = base.encode(seq, BASE_PROMPTS).h.data
                b = injected.encode(seq, BASE_PROMPTS).h.data
                expect(a.tobytes() == b.tobytes(), f"{name}: unplugged output differs from base")

        run_check(job.ops, "metrics.csv", log)
        run_check(job.ops, "encoder frozen", frozen)
        run_check(job.ops, "unplugged equals base", unplugged)


class Eval:
    name = "eval"
    SIZES = {
        "full": dict(shape={}, ppi=200, ppi_lengths=(20, 120), links=1,
                     contact=60, contact_lengths=(150, 254)),
        "tiny": dict(shape={"d": 8, "layers": 1, "heads": 2, "max_len": 48}, ppi=12,
                     ppi_lengths=(20, 40), links=1, contact=4, contact_lengths=(30, 46)),
    }

    def __init__(self, size: str):
        self.size = self.SIZES[size]

    def setup(self, pp, inputs: Path, seed: int) -> list:
        s = self.size
        rng = np.random.default_rng((seed, 3))
        table = gen.proteins(rng, "e", s["ppi"], *s["ppi_lengths"])
        names = list(table)
        edges = gen.hub_graph(rng, names, s["links"])
        gen.write_fasta(inputs / "ppi.fasta", table)
        gen.write_pairs(inputs / "ppi.tsv", edges, gen.non_edges(rng, names, edges, len(edges)))
        chains = gen.proteins(rng, "c", s["contact"], *s["contact_lengths"])
        pdb_dir = inputs / "pdb"
        pdb_dir.mkdir()
        for name, residues in chains.items():
            gen.write_pdb(pdb_dir / f"{name}.pdb", residues, gen.chain_trace(rng, len(residues)), rng)
        # build-contacts names each map <pdb stem>_<chain id>
        gen.write_fasta(inputs / "contact.fasta", {f"{k}_A": v for k, v in chains.items()})
        write_base(pp, inputs / "base.bin", s["shape"], seed)
        ops: list = []
        call_cli(pp, ["build-contacts", "--pdb-dir", pdb_dir, "--out-dir", inputs / "maps"], ops)
        return ops

    def job(self, pp, inputs: Path, out: Path, seed: int, probe) -> Job:
        job = Job()
        out.mkdir(parents=True)
        probe.reset()
        ppi = call_cli(pp, [
            "eval", "--checkpoint", inputs / "base.bin", "--task", "ppi",
            "--data", inputs / "ppi.tsv", "--fasta", inputs / "ppi.fasta",
            "--out", out / "ppi.csv",
        ], job.ops)
        job.encodes, job.encode_span = probe.encodes, ppi
        contact = call_cli(pp, [
            "eval", "--checkpoint", inputs / "base.bin", "--task", "contact",
            "--maps-dir", inputs / "maps", "--fasta", inputs / "contact.fasta",
            "--out", out / "contact.csv",
        ], job.ops)
        probe.close_cycle()
        job.cli_spans, job.cycle_spans = [ppi, contact], list(probe.contact_cycles)
        job.pair_logits = [np.asarray(z).reshape(-1) for z in probe.pair_logits]
        return job

    def check(self, pp, inputs: Path, out: Path, job: Job) -> None:
        records: dict = {}

        def recorded():
            for task in ("ppi", "contact"):
                job.config_hashes[f"eval {task}"], values = read_records(out / f"{task}.csv")
                records.update(values)
                for metric, value in values.items():
                    expect(math.isfinite(value) and 0.0 <= value <= 1.0, f"{metric}={value}")
            expect(records.get("truncated_evals") == 0.0, "truncated contact evaluations")
            job.fingerprint = hashlib.sha256(
                (out / "ppi.csv").read_bytes() + (out / "contact.csv").read_bytes()
            ).hexdigest()

        def pair_scores():
            graph, _ = pp.data.parse_ppi_tsv(inputs / "ppi.tsv")
            labels = np.array([bits[0] for _, bits in sorted(graph.edges.items())], dtype=float)
            expect(len(job.pair_logits) == labels.size, f"{len(job.pair_logits)} pair "
                   f"scores for {labels.size} pairs")
            z = np.concatenate(job.pair_logits)
            accuracy = float(np.mean((z > 0).astype(np.int64) == labels.astype(np.int64)))
            expect(accuracy == records.get("accuracy"), "recorded accuracy disagrees with "
                   "the pair-head outputs")
            bce = np.maximum(z, 0.0) - z * labels + np.log1p(np.exp(-np.abs(z)))
            job.loss_last = float(bce.mean())

        def symmetric():
            model, cfg, _ = pp.checkpoint.load_model(inputs / "base.bin")
            name, residues = next(iter(pp.data.parse_fasta(inputs / "contact.fasta").items()))
            seq = pp.tokenizer.encode(residues, cfg.max_len, name)
            c = model.contact_logits(model.encode(seq, BASE_PROMPTS)).data
            expect(np.array_equal(c, c.T), f"{name}: contact logits not symmetric")

        run_check(job.ops, "eval records", recorded)
        run_check(job.ops, "pair scores", pair_scores)
        run_check(job.ops, "contact symmetry", symmetric)


WORKLOADS = {w.name: w for w in (Pretrain, Inject, Eval)}
