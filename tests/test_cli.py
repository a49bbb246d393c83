"""End-to-end command-line workflows on a tiny corpus."""

import dataclasses
import os
import re
import shlex
import shutil
import signal
import struct
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from protprompt import checkpoint as ckpt
from protprompt import cli
from protprompt import data as D
from protprompt import numerics as nm
from protprompt import objectives as O
from protprompt import tokenizer as T
from protprompt.cli import main
from protprompt.config import _FIELD_TO_KEY, RunConfig
from protprompt.model import ProteinEncoder

RESIDUES = "ACDEFGHIKLMNPQRSTVWY"


def _atom(serial, name, res, chain, idx, x, y, z):
    return (
        f"ATOM  {serial:>5} {name:<4} {res:<3} {chain}{idx:>4} "
        f"   {x:8.3f}{y:8.3f}{z:8.3f}  1.00  0.00\n"
    )

BASE_SETS = [
    "--set", "d=16", "--set", "layers=1", "--set", "heads=2",
    "--set", "max_len=24", "--set", "batch_seqs=2", "--set", "batch_pairs=2",
    "--set", "checkpoint_every=2",
]


def _make_corpus(root):
    rng = np.random.default_rng(77)
    names = [f"p{i:02d}" for i in range(12)]
    fasta = root / "corpus.fasta"
    with open(fasta, "w") as fh:
        for name in names:
            n = int(rng.integers(8, 17))
            seq = "".join(RESIDUES[int(k)] for k in rng.integers(20, size=n))
            fh.write(f">{name}\n{seq}\n")
    pairs = root / "pairs.tsv"
    with open(pairs, "w") as fh:
        for i in range(10):
            a, b = names[i], names[(i + 3) % 12]
            fh.write(f"{a}\t{b}\t{i % 2}\n")
    return fasta, pairs


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """Shared workspace: corpus plus one 4-step pretrained checkpoint."""
    root = tmp_path_factory.mktemp("cli")
    fasta, pairs = _make_corpus(root)
    out = root / "base"
    rc = main([
        "pretrain", "--fasta", str(fasta), "--ppi", str(pairs),
        "--out-dir", str(out), "--steps", "4", "--seed", "7", *BASE_SETS,
    ])
    assert rc == 0
    return {"root": root, "fasta": fasta, "pairs": pairs, "out": out,
            "final": out / "final.bin"}


def test_pretrain_writes_artifacts(ws):
    out = ws["out"]
    for name in ("final.bin", "ckpt_step2.bin", "ckpt_step4.bin",
                 "metrics.csv", "vocab.txt"):
        assert (out / name).exists(), name
    lines = (out / "metrics.csv").read_text().splitlines()
    assert lines[0].startswith("# config_hash=")
    assert "# d=16" in lines
    header_at = lines.index("step,l_conserve,l_ppi,total,ms")
    rows = [ln.split(",") for ln in lines[header_at + 1:]]
    assert [r[0] for r in rows] == ["0", "1", "2", "3"]
    for r in rows:
        total = float(r[1]) + float(r[2])  # lambda = alpha_ppi = 1 here
        assert 0 < float(r[3]) and abs(float(r[3]) - total) < 1e-9 * (1 + total)
    vocab = (out / "vocab.txt").read_text().splitlines()
    assert len(vocab) == 25 and vocab[0].endswith("<cls>")


def _training_argv(ws, command, out):
    """A pretrain on ws's corpus, or an inject into ws's base, writing into out."""
    if command == "pretrain":
        return ["pretrain", "--fasta", str(ws["fasta"]), "--out-dir", str(out), "--seed", "7",
                *BASE_SETS]
    return ["inject", "--checkpoint", str(ws["final"]), "--prompt", "PPI", "--task", "ppi",
            "--data", str(ws["pairs"]), "--fasta", str(ws["fasta"]), "--out", str(out)]


@pytest.mark.parametrize("command", ["pretrain", "inject"])
def test_checkpoint_pruning(ws, tmp_path, command):
    # inject takes checkpoint_every=2 from its base's stored config
    out = tmp_path / "many"
    assert main([*_training_argv(ws, command, out), "--steps", "8", "--set", "keep_last=2"]) == 0
    kept = sorted(p.name for p in out.glob("ckpt_step*.bin"))
    assert kept == ["ckpt_step6.bin", "ckpt_step8.bin"]


@pytest.mark.parametrize("command", ["pretrain", "inject"])
def test_pruning_leaves_other_checkpoint_names_alone(ws, tmp_path, command):
    out = tmp_path / "stray"
    out.mkdir()
    (out / "ckpt_step_old.bin").write_bytes(b"not a checkpoint")
    assert main([*_training_argv(ws, command, out), "--steps", "4",
                 "--set", "checkpoint_every=1", "--set", "keep_last=2"]) == 0
    assert (out / "ckpt_step_old.bin").read_bytes() == b"not a checkpoint"
    kept = sorted(p.name for p in out.glob("ckpt_step*.bin"))
    assert kept == ["ckpt_step3.bin", "ckpt_step4.bin", "ckpt_step_old.bin"]


@pytest.mark.parametrize("second", ["pretrain", "inject", "resume-elsewhere", "same-run"])
def test_a_second_run_into_a_used_directory_exits_2_and_changes_nothing(ws, tmp_path, capsys,
                                                                       second):
    # without the refusal, a pretrain --steps 4 --seed 2 here would prune its own
    # checkpoints and keep the first run's ckpt_step6.bin and ckpt_step8.bin
    out = tmp_path / "used"
    first = ["pretrain", "--fasta", str(ws["fasta"]), "--out-dir", str(out), "--steps", "8",
             "--seed", "1", *BASE_SETS, "--set", "keep_last=2"]
    assert main(first) == 0
    used = out / "metrics.csv"
    if second == "same-run":  # without its log, not even the same run may reuse the directory
        used.unlink()
        used = out / "ckpt_step6.bin"
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    argv = {
        "pretrain": ["pretrain", "--fasta", str(ws["fasta"]), "--out-dir", str(out),
                     "--steps", "4", "--seed", "2", *BASE_SETS],
        "inject": [*_training_argv(ws, "inject", out), "--steps", "2"],
        "resume-elsewhere": ["pretrain", "--resume", str(ws["out"] / "ckpt_step2.bin"),
                             "--out-dir", str(out)],
        "same-run": first,
    }[second]
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err == (f"config error: {used}: the output directory holds "
                                       "another run's files; write this run to a new one\n")
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_inject_rolling_checkpoints_are_injected_models(ws, tmp_path, capsys):
    out = tmp_path / "inj"
    assert main([*_training_argv(ws, "inject", out), "--steps", "4"]) == 0
    assert (out / "ckpt_step4.bin").read_bytes() == (out / "injected.bin").read_bytes()
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(out / "ckpt_step2.bin"), "--task", "ppi",
                 "--data", str(ws["pairs"]), "--fasta", str(ws["fasta"])]) == 0
    assert capsys.readouterr().out.splitlines()[-1].endswith(",Seq|IC|PPI")


def test_pretrain_with_ppi_parses_its_fasta_once(ws, tmp_path, monkeypatch):
    calls = []
    parse_fasta = D.parse_fasta
    monkeypatch.setattr(D, "parse_fasta", lambda path: calls.append(path) or parse_fasta(path))
    rc = main([
        "pretrain", "--fasta", str(ws["fasta"]), "--ppi", str(ws["pairs"]),
        "--out-dir", str(tmp_path / "once"), "--steps", "1", *BASE_SETS,
    ])
    assert rc == 0
    assert calls == [str(ws["fasta"])]


def test_resume_reproduces_single_run_bitwise(ws, tmp_path):
    fasta, pairs = ws["fasta"], ws["pairs"]
    out = tmp_path / "resume"
    common = ["pretrain", "--fasta", str(fasta), "--ppi", str(pairs),
              "--out-dir", str(out), "--seed", "7", *BASE_SETS,
              "--set", "checkpoint_every=3"]

    assert main([*common, "--steps", "6"]) == 0
    straight_final = (out / "final.bin").read_bytes()
    straight_rows = _metric_rows(out)
    shutil.rmtree(out)

    assert main([*common, "--steps", "3"]) == 0
    assert (out / "ckpt_step3.bin").exists()
    assert main([*common, "--steps", "6",
                 "--resume", str(out / "ckpt_step3.bin")]) == 0
    assert (out / "final.bin").read_bytes() == straight_final
    resumed_rows = _metric_rows(out)
    # loss columns replay exactly; the ms timing column may differ
    assert [r[:-1] for r in resumed_rows] == [r[:-1] for r in straight_rows]


def test_resume_from_a_checkpoint_with_moments_for_every_parameter(ws, tmp_path):
    # checkpoints written before Adam held only the trained set carry zero
    # moments for every other parameter; they resume to the same bytes
    out = tmp_path / "resume"
    common = ["pretrain", "--fasta", str(ws["fasta"]), "--ppi", str(ws["pairs"]),
              "--out-dir", str(out), "--seed", "7", *BASE_SETS]
    assert main([*common, "--steps", "4"]) == 0
    straight_final = (out / "final.bin").read_bytes()
    straight_rows = [r[:-1] for r in _metric_rows(out)]
    shutil.rmtree(out)

    assert main([*common, "--steps", "2"]) == 0
    rolled = out / "ckpt_step2.bin"
    model, cfg, state = ckpt.load_model(rolled)
    everything = O.Adam(model.parameters(), lr=cfg.lr)
    everything.load_state_entries(state)
    ckpt.save_model(rolled, model, cfg, everything)
    _, entries = ckpt.load_checkpoint(rolled)
    moments = {n: v for n, v in entries.items() if n.startswith("opt.m.")}
    assert len(moments) == len(model.parameters()) == 36
    assert not any(moments[f"opt.m.{n}"].any() for n in ("head.contact.b", "head.pair.w"))

    assert main([*common, "--steps", "4", "--resume", str(rolled)]) == 0
    assert (out / "final.bin").read_bytes() == straight_final
    assert [r[:-1] for r in _metric_rows(out)] == straight_rows


def test_output_directory_leaves_no_trace_in_outputs(ws, tmp_path):
    # the same seeded run in two directories writes the same bytes
    for name in ("a", "b"):
        assert main(["pretrain", "--fasta", str(ws["fasta"]), "--ppi", str(ws["pairs"]),
                     "--out-dir", str(tmp_path / name), "--steps", "2", "--seed", "5",
                     *BASE_SETS]) == 0
    a, b = tmp_path / "a", tmp_path / "b"
    assert (a / "final.bin").read_bytes() == (b / "final.bin").read_bytes()
    hash_line = [(d / "metrics.csv").read_text().splitlines()[0] for d in (a, b)]
    assert hash_line[0].startswith("# config_hash=") and hash_line[0] == hash_line[1]


def test_pretrain_output_directory_defaults(ws, tmp_path, monkeypatch):
    # without --out-dir, a fresh run writes into ./run and a resumed run
    # into its checkpoint's directory
    monkeypatch.chdir(tmp_path)
    common = ["pretrain", "--fasta", str(ws["fasta"]), "--ppi", str(ws["pairs"]), "--seed", "5",
              *BASE_SETS]
    assert main([*common, "--steps", "2"]) == 0
    assert (tmp_path / "run" / "final.bin").exists()
    moved = tmp_path / "moved"
    (tmp_path / "run").rename(moved)
    assert main([*common, "--steps", "4", "--resume", str(moved / "ckpt_step2.bin")]) == 0
    assert [r[0] for r in _metric_rows(moved)] == ["0", "1", "2", "3"]
    assert (moved / "ckpt_step4.bin").exists() and not (tmp_path / "run").exists()


def test_resume_into_a_new_directory_keeps_the_whole_log(ws, tmp_path):
    common = ["pretrain", "--fasta", str(ws["fasta"]), "--ppi", str(ws["pairs"]),
              "--seed", "7", "--steps", "6", *BASE_SETS, "--set", "checkpoint_every=3"]
    first, second = tmp_path / "first", tmp_path / "second"
    assert main([*common, "--out-dir", str(first)]) == 0
    assert main([*common, "--out-dir", str(second),
                 "--resume", str(first / "ckpt_step3.bin")]) == 0
    assert (second / "final.bin").read_bytes() == (first / "final.bin").read_bytes()
    logs = [(d / "metrics.csv").read_text().splitlines() for d in (first, second)]
    masked = [[ln.rsplit(",", 1)[0] if ln[:1].isdigit() else ln for ln in log] for log in logs]
    assert masked[0] == masked[1]
    assert [r[0] for r in _metric_rows(second)] == ["0", "1", "2", "3", "4", "5"]


def test_resume_takes_its_rows_from_the_log_beside_its_checkpoint(ws, tmp_path):
    # --out-dir holds an earlier try of the same run, cut after its step-2
    # row; the checkpoint's own log, which never runs behind it, gives row 3
    common = ["pretrain", "--fasta", str(ws["fasta"]), "--ppi", str(ws["pairs"]),
              "--seed", "7", *BASE_SETS]
    first, second, straight = tmp_path / "first", tmp_path / "second", tmp_path / "straight"
    assert main([*common, "--steps", "4", "--out-dir", str(first)]) == 0
    assert main([*common, "--steps", "6", "--out-dir", str(straight)]) == 0
    second.mkdir()
    log = (straight / "metrics.csv").read_text()
    (second / "metrics.csv").write_text(log[:log.index("\n3,") + 1])
    assert main([*common, "--steps", "6", "--out-dir", str(second),
                 "--resume", str(first / "ckpt_step4.bin")]) == 0
    assert (second / "final.bin").read_bytes() == (straight / "final.bin").read_bytes()
    assert [r[0] for r in _metric_rows(second)] == ["0", "1", "2", "3", "4", "5"]
    assert _log_lines(second) == _log_lines(straight)


def test_resume_refuses_a_log_that_another_run_wrote(ws, tmp_path, capsys):
    # A's checkpoint copied beside C's log: C's rows are not A's run, so the
    # resume stops before it writes anything rather than replay them
    common = ["pretrain", "--fasta", str(ws["fasta"]), "--steps", "4", *BASE_SETS]
    a, c, d = tmp_path / "A", tmp_path / "C", tmp_path / "D"
    assert main([*common, "--seed", "7", "--out-dir", str(a)]) == 0
    assert main([*common, "--seed", "8", "--out-dir", str(c)]) == 0
    shutil.copy(a / "ckpt_step2.bin", c / "ckpt_a2.bin")
    before = {p.name: p.read_bytes() for p in c.iterdir()}
    capsys.readouterr()
    assert main([*common, "--seed", "7", "--out-dir", str(d),
                 "--resume", str(c / "ckpt_a2.bin")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {c / 'metrics.csv'}: ") and "Traceback" not in err
    assert not d.exists() and {p.name: p.read_bytes() for p in c.iterdir()} == before


def _files(root):
    """Every file under root, by relative path, with its bytes."""
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_resume_refuses_a_log_that_lacks_its_checkpoints_rows(ws, tmp_path, monkeypatch, capsys):
    # a rerun of the same command may rewrite the log, and one cut before its
    # first step row leaves the first run's checkpoints beside a log without
    # rows; a resume from them would log no step before its own
    a = tmp_path / "A"
    run = ["pretrain", "--fasta", str(ws["fasta"]), "--steps", "4", "--out-dir", str(a),
           *BASE_SETS]
    assert main(run) == 0

    def interrupt(*args, **kwargs):
        raise KeyboardInterrupt

    with monkeypatch.context() as m:
        m.setattr(O, "train_step", interrupt)
        with pytest.raises(KeyboardInterrupt):
            main(run)
    assert _metric_rows(a, "step,l_conserve,total,ms") == []
    before = _files(tmp_path)
    capsys.readouterr()
    assert main(["pretrain", "--resume", str(a / "ckpt_step4.bin")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {a / 'metrics.csv'}: it lacks a step row before "
                          "step 4"), err
    assert _files(tmp_path) == before


@pytest.mark.parametrize("case", ["ppi", "no-ppi", "routing", "injected", "injected-no-log"])
def test_resume_refuses_to_change_its_tasks_or_what_it_trains(ws, tmp_path, capsys, case):
    # A trains without --ppi, ws's base with it. A resume that adds or drops
    # the task would write rows under another run's columns; one that trains
    # a parameter the checkpoint keeps no moments for (IC with routing off,
    # or the encoder after an inject) would step it from zero moments
    a = tmp_path / "A"
    assert main(["pretrain", "--fasta", str(ws["fasta"]), "--steps", "4", "--out-dir", str(a),
                 *BASE_SETS]) == 0
    if case.startswith("injected"):
        assert main([*_training_argv(ws, "inject", tmp_path / "I"), "--steps", "2",
                     "--checkpoint", str(a / "final.bin")]) == 0
    if case == "injected-no-log":
        (tmp_path / "I" / "metrics.csv").unlink()
    resume, named = {
        "ppi": (["--resume", str(a / "ckpt_step2.bin"), "--ppi", str(ws["pairs"]),
                 "--out-dir", str(tmp_path / "B")],
                f"{a / 'metrics.csv'}: its columns are not this run's "
                "step,l_conserve,l_ppi,total,ms"),
        "no-ppi": (["--resume", str(ws["out"] / "ckpt_step2.bin"), "--set", "ppi=",
                    "--out-dir", str(tmp_path / "B")],
                   f"{ws['out'] / 'metrics.csv'}: its columns are not this run's "
                   "step,l_conserve,total,ms"),
        "routing": (["--resume", str(a / "ckpt_step2.bin"), "--set", "routing=false",
                     "--out-dir", str(tmp_path / "R")],
                    f"--resume {a / 'ckpt_step2.bin'} holds no Adam moments for prompt.IC,"),
        "injected": (["--resume", str(tmp_path / "I" / "injected.bin")],
                     f"{tmp_path / 'I' / 'metrics.csv'}: its columns are not this run's "
                     "step,l_conserve,total,ms"),
        "injected-no-log": (["--resume", str(tmp_path / "I" / "injected.bin")],
                            f"--resume {tmp_path / 'I' / 'injected.bin'} holds no Adam "
                            "moments for embed."),
    }[case]
    before, base = _files(tmp_path), _files(ws["out"])
    capsys.readouterr()
    assert main(["pretrain", *resume]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"config error: {named}"), captured.err
    assert "Traceback" not in captured.err and not captured.out
    assert _files(tmp_path) == before and _files(ws["out"]) == base


def test_a_cut_extension_leaves_its_log_readable_to_a_retry(ws, tmp_path, monkeypatch):
    # a resume that extends a run rewrites the log beside its checkpoint with
    # the new steps before its first step; cut there, a retry of the same
    # command and a resume from an older checkpoint both still take that
    # log's rows, which steps does not change
    run, older, straight = tmp_path / "run", tmp_path / "older", tmp_path / "straight"
    shutil.copytree(ws["out"], run)
    common = ["pretrain", "--fasta", str(ws["fasta"]), "--ppi", str(ws["pairs"]),
              "--seed", "7", "--steps", "6", *BASE_SETS]
    assert main([*common, "--out-dir", str(straight)]) == 0
    extend = [*common, "--resume", str(run / "final.bin")]

    def interrupt(*args, **kwargs):
        raise KeyboardInterrupt

    with monkeypatch.context() as m:
        m.setattr(O, "train_step", interrupt)
        with pytest.raises(KeyboardInterrupt):
            main(extend)
    assert "# steps=6" in _log_lines(run) and [r[0] for r in _metric_rows(run)] == ["0", "1", "2", "3"]
    assert main([*common, "--out-dir", str(older), "--resume", str(run / "ckpt_step2.bin")]) == 0
    assert main(extend) == 0
    for out in (run, older):
        assert (out / "final.bin").read_bytes() == (straight / "final.bin").read_bytes()
        assert _log_lines(out) == _log_lines(straight)


def test_resume_reads_a_log_whose_header_names_retired_keys(ws, tmp_path):
    # a run started before beta1 was retired stored beta1=0.9 in its
    # checkpoints and its log header; read back, both drop it and agree
    run, out = tmp_path / "run", tmp_path / "out"
    shutil.copytree(ws["out"], run)
    text, entries = ckpt.load_checkpoint(run / "ckpt_step2.bin")
    ckpt.save_checkpoint(run / "ckpt_step2.bin",
                         "".join(sorted([*text.splitlines(True), "beta1=0.9\n"])), entries)
    lines = (run / "metrics.csv").read_text().splitlines(True)
    header = [i for i, line in enumerate(lines) if line.startswith("# ")][1:]
    lines[header[0]:header[-1] + 1] = sorted([*lines[header[0]:header[-1] + 1], "# beta1=0.9\n"])
    (run / "metrics.csv").write_text("".join(lines))
    assert main(["pretrain", "--fasta", str(ws["fasta"]), "--ppi", str(ws["pairs"]),
                 "--steps", "4", "--out-dir", str(out),
                 "--resume", str(run / "ckpt_step2.bin")]) == 0
    assert (out / "final.bin").read_bytes() == ws["final"].read_bytes()
    assert _log_lines(out) == _log_lines(ws["out"])


def test_resume_mid_interval_logs_each_step_once(ws, tmp_path):
    out = tmp_path / "mid"
    common = ["pretrain", "--fasta", str(ws["fasta"]), "--ppi", str(ws["pairs"]),
              "--out-dir", str(out), "--seed", "7", *BASE_SETS,
              "--set", "checkpoint_every=3"]
    assert main([*common, "--steps", "6"]) == 0
    straight_rows = _metric_rows(out)
    shutil.rmtree(out)

    # stop at step 5: steps 3 and 4 are logged after the last checkpoint
    assert main([*common, "--steps", "5"]) == 0
    assert [r[0] for r in _metric_rows(out)] == ["0", "1", "2", "3", "4"]
    assert main([*common, "--steps", "6",
                 "--resume", str(out / "ckpt_step3.bin")]) == 0
    resumed_rows = _metric_rows(out)
    assert [r[0] for r in resumed_rows] == ["0", "1", "2", "3", "4", "5"]
    assert [r[:-1] for r in resumed_rows] == [r[:-1] for r in straight_rows]


def _log_lines(out_dir):
    """metrics.csv's lines with the ms cell of every step row cut off."""
    lines = (out_dir / "metrics.csv").read_text().splitlines()
    return [ln.rsplit(",", 1)[0] if ln[:1].isdigit() else ln for ln in lines]


def test_resumed_log_states_the_resumed_config(ws, tmp_path):
    # a resume with more steps is another config: its log carries that
    # config's hash, the one final.bin stores, and equals a straight run's
    common = ["pretrain", "--fasta", str(ws["fasta"]), "--ppi", str(ws["pairs"]),
              "--seed", "7", *BASE_SETS]
    out, straight = tmp_path / "resumed", tmp_path / "straight"
    assert main([*common, "--out-dir", str(out), "--steps", "3"]) == 0
    assert main([*common, "--out-dir", str(out), "--steps", "4",
                 "--resume", str(out / "ckpt_step2.bin")]) == 0
    assert main([*common, "--out-dir", str(straight), "--steps", "4"]) == 0
    _, cfg, _ = ckpt.load_model(out / "final.bin")
    assert _log_lines(out)[0] == f"# config_hash={cfg.hash()}"
    assert _log_lines(out) == _log_lines(straight)


def test_resume_drops_a_cut_row_after_the_checkpoint(ws, tmp_path):
    # a kill mid-row can leave "1" of row 10 at the log's end; 1 < 10, but
    # the cut row is not a step row and must not survive the resume
    common = ["pretrain", "--fasta", str(ws["fasta"]), "--seed", "7", *BASE_SETS,
              "--set", "checkpoint_every=10"]
    out, straight = tmp_path / "cut", tmp_path / "straight"
    assert main([*common, "--out-dir", str(out), "--steps", "10"]) == 0
    with open(out / "metrics.csv", "ab") as fh:
        fh.write(b"1")
    assert main([*common, "--out-dir", str(out), "--steps", "11",
                 "--resume", str(out / "ckpt_step10.bin")]) == 0
    assert main([*common, "--out-dir", str(straight), "--steps", "11"]) == 0
    assert _log_lines(out) == _log_lines(straight)


class _FullDisk:
    """Writable file that fails once `room` bytes have been written."""

    def __init__(self, fh, room):
        self.fh, self.room = fh, room

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        if len(data) > self.room:
            self.fh.write(data[: self.room])
            raise OSError(28, "No space left on device")
        self.room -= len(data)
        return self.fh.write(data)


def test_failed_checkpoint_save_keeps_the_previous_one(ws, tmp_path, monkeypatch):
    out = tmp_path / "full"

    def open_failing_step4(path, mode="r", *args, **kwargs):
        fh = open(path, mode, *args, **kwargs)
        return _FullDisk(fh, room=200) if "ckpt_step4" in str(path) else fh

    monkeypatch.setattr(ckpt, "open", open_failing_step4, raising=False)
    rc = main(["pretrain", "--fasta", str(ws["fasta"]), "--out-dir", str(out),
               "--steps", "4", "--seed", "7", *BASE_SETS, "--set", "keep_last=1"])
    assert rc == 1
    # the newest good checkpoint survives; no partial or temporary file is left
    assert sorted(p.name for p in out.iterdir()) == [
        "ckpt_step2.bin", "metrics.csv", "vocab.txt"]
    _, _, state = ckpt.load_model(out / "ckpt_step2.bin")
    assert int(state["opt.step"]) == 2


def test_failed_resume_log_start_keeps_the_previous_log(ws, tmp_path, monkeypatch):
    out = tmp_path / "cut"
    argv = ["pretrain", "--fasta", str(ws["fasta"]), "--ppi", str(ws["pairs"]),
            "--out-dir", str(out), "--seed", "7", *BASE_SETS, "--set", "checkpoint_every=3"]
    resume = ["--steps", "6", "--resume", str(out / "ckpt_step3.bin")]
    assert main([*argv, "--steps", "6"]) == 0
    straight_rows = _metric_rows(out)
    shutil.rmtree(out)
    # rows 3 and 4 follow the last checkpoint, so the resume must cut them
    assert main([*argv, "--steps", "5"]) == 0
    before = (out / "metrics.csv").read_bytes()

    def open_failing_log(path, mode="r", *args, **kwargs):
        fh = open(path, mode, *args, **kwargs)
        return _FullDisk(fh, room=10) if "metrics.csv" in str(path) else fh

    with monkeypatch.context() as patch:
        patch.setattr(ckpt, "open", open_failing_log, raising=False)
        assert main([*argv, *resume]) == 1
    assert (out / "metrics.csv").read_bytes() == before
    assert not list(out.glob("*.tmp"))
    assert main([*argv, *resume]) == 0
    assert [r[:-1] for r in _metric_rows(out)] == [r[:-1] for r in straight_rows]


def _metric_rows(out_dir, columns="step,l_conserve,l_ppi,total,ms"):
    lines = (out_dir / "metrics.csv").read_text().splitlines()
    start = lines.index(columns) + 1
    return [ln.split(",") for ln in lines[start:]]


def _blob_pdb_dir(root, n=30, seed=5):
    """A directory with one PDB file: n residues inside a 3A cube."""
    pdb_dir = root / "pdbs"
    pdb_dir.mkdir(exist_ok=True)
    rng = np.random.default_rng(seed)
    with open(pdb_dir / "blob.pdb", "w") as fh:
        for i in range(n):
            x, y, z = rng.uniform(-1.5, 1.5, size=3)
            fh.write(_atom(i + 1, "CB", "ALA", "A", i + 1, x, y, z))
    return pdb_dir


def _eval_out(ws, root, variant):
    out = root / "records.csv"
    argv = ["eval", "--checkpoint", str(ws["final"]), "--task", "ppi",
            "--data", str(ws["pairs"]), "--fasta", str(ws["fasta"]), "--out", str(out),
            "--prompts", ("Seq", "IC")[variant]]
    return argv, out


def _probe_csv(ws, root, variant):
    argv = ["probe", "--checkpoint", str(ws["final"]), "--fasta", str(ws["fasta"]),
            "--prompt", ("Seq", "IC")[variant], "--out-dir", str(root / "probes")]
    return argv, root / "probes" / "p00.csv"


def _split_tsv(ws, root, variant):
    argv = ["split", "--ppi", str(ws["pairs"]), "--mode", "bfs", "--fraction", "0.3",
            "--seed", str(variant), "--out-prefix", str(root / "sp")]
    return argv, root / "sp_train.tsv"


def _vocab(ws, root, variant):
    # vocab.txt never varies, and a second run into the same directory must be
    # the same run, so both variants share one config
    argv = ["pretrain", "--fasta", str(ws["fasta"]), "--out-dir", str(root / "run"),
            "--steps", "1", "--seed", "0", *BASE_SETS]
    return argv, root / "run" / "vocab.txt"


@pytest.mark.parametrize("case", [_eval_out, _probe_csv, _split_tsv, _vocab],
                         ids=["eval-out", "probe-csv", "split-tsv", "vocab"])
def test_interrupted_output_write_keeps_the_previous_file(ws, tmp_path, monkeypatch, case):
    argv, target = case(ws, tmp_path, 0)
    assert main(argv) == 0
    before = target.read_bytes()

    def open_failing_target(path, mode="r", *args, **kwargs):
        fh = open(path, mode, *args, **kwargs)
        return _FullDisk(fh, room=10) if target.name in str(path) else fh

    monkeypatch.setattr(ckpt, "open", open_failing_target, raising=False)
    argv, target = case(ws, tmp_path, 1)  # the same file, other content if any
    assert main(argv) == 1
    assert target.read_bytes() == before
    assert not list(target.parent.glob("*.tmp"))


# build-contacts refuses a directory that holds maps or a report, so no
# earlier file exists to keep: an interrupted write leaves none behind
@pytest.mark.parametrize("target", ["blob_A.cmap", "report.txt"],
                         ids=["contact-map", "contacts-report"])
def test_interrupted_contact_write_leaves_no_file(tmp_path, monkeypatch, target):
    maps = tmp_path / "maps"

    def open_failing_target(path, mode="r", *args, **kwargs):
        fh = open(path, mode, *args, **kwargs)
        return _FullDisk(fh, room=10) if target in str(path) else fh

    monkeypatch.setattr(ckpt, "open", open_failing_target, raising=False)
    rc = main(["build-contacts", "--pdb-dir", str(_blob_pdb_dir(tmp_path)),
               "--out-dir", str(maps)])
    assert rc == 1
    assert not (maps / target).exists()
    assert not list(maps.glob("*.tmp"))


def test_structural_override_on_resume_is_refused(ws, tmp_path, capsys):
    out = tmp_path / "r2"
    rc = main([
        "pretrain", "--fasta", str(ws["fasta"]), "--out-dir", str(out),
        "--steps", "6", "--resume", str(ws["final"]), "--set", "d=32", *BASE_SETS[2:],
    ])
    assert rc == 2
    assert "contradicts checkpoint value" in capsys.readouterr().err


def test_documented_learning_rates_run_without_a_warning(ws, tmp_path, capsys):
    # README's quick-start inject rate and the benchmark's pretrain rate
    rc = main(["inject", "--checkpoint", str(ws["final"]), "--prompt", "PPI", "--task", "ppi",
               "--data", str(ws["pairs"]), "--fasta", str(ws["fasta"]),
               "--out", str(tmp_path / "inj"), "--steps", "1", "--lr", "0.02"])
    assert rc == 0
    rc = main(["pretrain", "--fasta", str(ws["fasta"]), "--out-dir", str(tmp_path / "pre"),
               "--steps", "1", *BASE_SETS, "--set", "lr=0.001"])
    assert rc == 0
    assert "config warning" not in capsys.readouterr().err


def test_inject_trains_prompt_with_frozen_encoder(ws, tmp_path):
    inj = tmp_path / "inj"
    rc = main([
        "inject", "--checkpoint", str(ws["final"]), "--prompt", "PPI",
        "--task", "ppi", "--data", str(ws["pairs"]), "--fasta", str(ws["fasta"]),
        "--out", str(inj), "--steps", "3", "--lr", "0.01",
    ])
    assert rc == 0
    base_model, base_cfg, _ = ckpt.load_model(ws["final"])
    new_model, new_cfg, _ = ckpt.load_model(inj / "injected.bin")
    assert new_cfg.prompts == "Seq,IC,PPI"
    assert tuple(new_model.prompts) == ("Seq", "IC", "PPI")

    base_params = base_model.parameters()
    new_params = new_model.parameters()
    moved = []
    for name, p in base_params.items():
        if np.array_equal(new_params[name].data, p.data):
            continue
        moved.append(name)
    # only the binary pair head moved; everything else stayed frozen
    assert set(moved) <= {"head.pair.w", "head.pair.b",
                          "head.pair_bin.w", "head.pair_bin.b"}
    assert "head.pair_bin.w" in moved
    assert not np.array_equal(new_params["prompt.PPI"].data, 0.0)

    # with the new prompt unplugged the injected model is the base model
    seq = T.encode("ACDWKE", base_cfg.max_len, "q")
    for sel in ((), ("Seq", "IC")):
        a = base_model.encode(seq, sel).h.data
        b = new_model.encode(seq, sel).h.data
        assert np.array_equal(a, b)
    plugged = new_model.encode(seq, ("PPI",)).h.data
    assert not np.array_equal(plugged, base_model.encode(seq, ()).h.data)


def test_inject_frozen_parameters_collect_no_gradient(ws, tmp_path, monkeypatch):
    saved = {}
    save_model = ckpt.save_model

    def capture(path, model, *args, **kwargs):
        saved["model"] = model
        return save_model(path, model, *args, **kwargs)

    monkeypatch.setattr(ckpt, "save_model", capture)
    rc = main([
        "inject", "--checkpoint", str(ws["final"]), "--prompt", "PPI",
        "--task", "ppi", "--data", str(ws["pairs"]), "--fasta", str(ws["fasta"]),
        "--out", str(tmp_path / "inj"), "--steps", "2",
    ])
    assert rc == 0
    params = saved["model"].parameters()
    frozen = [n for n in params if n.startswith(("embed.", "layer", "prompt.Seq", "prompt.IC"))]
    assert len(frozen) == 3 + 16 + 2
    assert all(params[n].grad is None for n in frozen)
    assert params["prompt.PPI"].grad is not None
    base_model, base_cfg, _ = ckpt.load_model(ws["final"])
    seq = T.encode("ACDWKE", base_cfg.max_len, "q")
    assert np.array_equal(saved["model"].encode(seq, ("Seq", "IC")).h.data,
                          base_model.encode(seq, ("Seq", "IC")).h.data)


@pytest.mark.parametrize("unfrozen", [False, True], ids=["frozen", "unfrozen"])
def test_inject_optimizes_only_the_pair_head_its_labels_pick(ws, tmp_path, monkeypatch,
                                                             unfrozen):
    argv = ["inject", "--checkpoint", str(ws["final"]), "--prompt", "PPI", "--task", "ppi",
            "--data", str(ws["pairs"]), "--fasta", str(ws["fasta"]), "--steps", "3",
            "--lr", "0.01", *(["--no-freeze-encoder"] if unfrozen else [])]

    def run(out):
        assert main([*argv, "--out", str(out)]) == 0
        _, entries = ckpt.load_checkpoint(out / "injected.bin")
        params = [(n, v.tobytes()) for n, v in entries.items() if not n.startswith("opt.")]
        opt_heads = [n for n in entries if n.startswith("opt.") and ".head." in n]
        return params, opt_heads, [row[:-1] for row in _metric_rows(out)]

    params, opt_heads, rows = run(tmp_path / "picked")
    assert sorted(opt_heads) == ["opt.m.head.pair_bin.b", "opt.m.head.pair_bin.w",
                                 "opt.v.head.pair_bin.b", "opt.v.head.pair_bin.w"]

    # inject as it ran before: Adam also held the head the binary labels never reach
    train = cli._train

    def both_pair_heads(model, *args):
        for p in model.head("pair"):
            p.requires_grad = True
        return train(model, *args)

    monkeypatch.setattr(cli, "_train", both_pair_heads)
    old_params, old_opt_heads, old_rows = run(tmp_path / "both")
    assert len(old_opt_heads) == 8
    assert params == old_params and rows == old_rows


ENCODER = {"embed.tok", "embed.pos", "embed.seg", "layer0.attn.wq", "layer0.attn.bq",
           "layer0.attn.wk", "layer0.attn.bk", "layer0.attn.wv", "layer0.attn.bv",
           "layer0.attn.wo", "layer0.attn.bo", "layer0.ln1.gain", "layer0.ln1.bias",
           "layer0.ff.w1", "layer0.ff.b1", "layer0.ff.w2", "layer0.ff.b2", "layer0.ln2.gain",
           "layer0.ln2.bias"}
MLM_HEAD = {"head.mlm.w", "head.mlm.b"}
BIN_HEAD = {"head.pair_bin.w", "head.pair_bin.b"}


@pytest.mark.parametrize("case, extra, trained", [
    ("pretrain", ["--ppi"], ENCODER | MLM_HEAD | BIN_HEAD | {"prompt.Seq", "prompt.IC"}),
    ("pretrain", [], ENCODER | MLM_HEAD | {"prompt.Seq"}),
    ("pretrain", ["--set", "routing=false"], ENCODER | MLM_HEAD | {"prompt.Seq", "prompt.IC"}),
    ("inject", [], BIN_HEAD | {"prompt.PPI"}),
    ("inject", ["--no-freeze-encoder"], ENCODER | BIN_HEAD | {"prompt.PPI"}),
], ids=["pretrain-ppi", "pretrain", "pretrain-unrouted", "inject-frozen", "inject-unfrozen"])
def test_optimizer_moments_name_the_trained_set(ws, tmp_path, monkeypatch, case, extra, trained):
    # Adam holds exactly what some source reaches: each held parameter gets a
    # gradient on every step, and the checkpoints keep moments for it alone
    out = tmp_path / "run"
    if extra[:1] == ["--ppi"]:
        extra = ["--ppi", str(ws["pairs"])]
    steps, step = [], O.Adam.step

    def checked(self, grads):
        assert [n for n, g in grads.items() if g is None] == []
        steps.append(sorted(self.params))
        step(self, grads)

    monkeypatch.setattr(O.Adam, "step", checked)
    assert main([*_training_argv(ws, case, out), *extra, "--steps", "2"]) == 0
    assert steps == [sorted(trained)] * 2
    for path in sorted(out.glob("*.bin")):
        _, entries = ckpt.load_checkpoint(path)
        for moment in ("m", "v"):
            held = {n.removeprefix(f"opt.{moment}.") for n in entries
                    if n.startswith(f"opt.{moment}.")}
            assert held == trained, (path.name, moment)


def test_inject_step_sweeps_backward_once(ws, tmp_path, monkeypatch):
    calls = []
    backward = nm.backward
    monkeypatch.setattr(nm, "backward", lambda *a: calls.append(1) or backward(*a))
    rc = main([
        "inject", "--checkpoint", str(ws["final"]), "--prompt", "PPI",
        "--task", "ppi", "--data", str(ws["pairs"]), "--fasta", str(ws["fasta"]),
        "--out", str(tmp_path / "inj"), "--steps", "3",
    ])
    assert rc == 0
    assert len(calls) == 3


@pytest.mark.parametrize("command", ["pretrain", "inject"])
def test_each_step_records_one_loss_node_per_source(ws, tmp_path, monkeypatch, command):
    # each source sweeps a tape of its own, holding layers + 1 nodes per
    # encode and its one loss node; the weight seeds the sweep and records
    # no node
    encodes, sweeps = [0], []
    encode, backward = ProteinEncoder.encode, nm.backward

    def counting_encode(*args, **kwargs):
        encodes[0] += 1
        return encode(*args, **kwargs)

    def counting_backward(tape, loss, weight=1.0):
        sweeps.append((len(tape.nodes), encodes[0]))
        encodes[0] = 0
        return backward(tape, loss, weight)

    monkeypatch.setattr(ProteinEncoder, "encode", counting_encode)
    monkeypatch.setattr(nm, "backward", counting_backward)
    data = ["--fasta", str(ws["fasta"]), "--steps", "3"]
    if command == "pretrain":
        argv = ["pretrain", *data, "--ppi", str(ws["pairs"]), "--out-dir", str(tmp_path),
                *BASE_SETS, "--set", "layers=2", "--set", "batch_seqs=6"]
        layers, sources = 2, 2
    else:
        argv = ["inject", *data, "--checkpoint", str(ws["final"]), "--prompt", "PPI",
                "--task", "ppi", "--data", str(ws["pairs"]), "--out", str(tmp_path)]
        layers, sources = 1, 1
    assert main(argv) == 0
    assert len(sweeps) == 3 * sources
    for nodes, encoded in sweeps:
        assert encoded > 0 and nodes == (layers + 1) * encoded + 1


def _under_blas_threads(tmp_path, script, *args):
    """Run script with args in a child interpreter under one and under two
    OpenBLAS threads; returns the two completed processes."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    procs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        proc = subprocess.run([sys.executable, "-c", textwrap.dedent(script), *map(str, args),
                               str(tmp_path / f"threads{threads}")],
                              capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        procs.append(proc)
    return procs


def test_blas_thread_count_leaves_checkpoints_bitwise(tmp_path):
    # at n of 200-235 OpenBLAS splits the encoder's and the heads' products
    # across two threads and rounds them by the split; cli.main pins one
    # thread, so the bits do not depend on OPENBLAS_NUM_THREADS
    rng = np.random.default_rng(31)
    fasta, pairs = tmp_path / "long.fasta", tmp_path / "long.tsv"
    fasta.write_text("".join(
        f">q{i}\n" + "".join(RESIDUES[int(k)] for k in rng.integers(20, size=200 + 5 * i)) + "\n"
        for i in range(8)))
    pairs.write_text("".join(f"q{i}\tq{(i + 1) % 8}\t{i % 2}\n" for i in range(8)))
    script = """
        import sys
        from protprompt.cli import main

        fasta, pairs, out = sys.argv[1:]
        shape = ["--set", "d=64", "--set", "layers=1", "--set", "heads=4",
                 "--set", "max_len=256", "--set", "batch_seqs=4", "--set", "batch_pairs=4"]
        assert main(["pretrain", "--fasta", fasta, "--ppi", pairs, "--out-dir", out,
                     "--steps", "2", "--seed", "3", *shape]) == 0
        assert main(["inject", "--checkpoint", out + "/final.bin", "--prompt", "PPI",
                     "--task", "ppi", "--data", pairs, "--fasta", fasta,
                     "--out", out + "/inj", "--steps", "2"]) == 0
    """
    _under_blas_threads(tmp_path, script, fasta, pairs)
    outputs = [[(tmp_path / f"threads{threads}" / name).read_bytes()
                for name in ("final.bin", "inj/injected.bin")] for threads in ("1", "2")]
    assert outputs[0] == outputs[1]


def test_blas_thread_count_leaves_contact_scores_bitwise(tmp_path):
    # the contact head's product term at n=254 rounds by OpenBLAS's split;
    # eval prints the same records and ranks logits with the same bits
    rng = np.random.default_rng(5)
    fasta, maps = tmp_path / "one.fasta", tmp_path / "maps"
    fasta.write_text(">c\n" + "".join(RESIDUES[int(k)] for k in rng.integers(20, size=254)))
    maps.mkdir()
    bits = np.triu(rng.random((254, 254)) < 0.05, 1)
    D.write_contact_map(D.ContactMap(n=254, bits=bits | bits.T), maps / "c.cmap")
    assert main(["pretrain", "--fasta", str(fasta), "--out-dir", str(tmp_path / "base"),
                 "--steps", "1", "--set", "d=64", "--set", "layers=2", "--set", "heads=4",
                 "--set", "max_len=256", "--set", "batch_seqs=1"]) == 0
    script = """
        import hashlib, sys
        from protprompt.cli import main
        from protprompt.model import ProteinEncoder

        contact_logits = ProteinEncoder.contact_logits

        def printed(self, out):
            scores = contact_logits(self, out)
            print(hashlib.sha1(scores.data.tobytes()).hexdigest())
            return scores

        ProteinEncoder.contact_logits = printed
        checkpoint, fasta, maps, out = sys.argv[1:]
        assert main(["eval", "--checkpoint", checkpoint, "--task", "contact",
                     "--fasta", fasta, "--maps-dir", maps]) == 0
    """
    one, two = _under_blas_threads(tmp_path, script, tmp_path / "base" / "final.bin", fasta, maps)
    assert one.stdout == two.stdout and "p_at_l2" in one.stdout


@pytest.mark.parametrize("name", ["A,B", "", "Seq", "IC"], ids=["comma", "empty", "seq", "taken"])
def test_inject_rejects_prompt_names_it_cannot_train(ws, tmp_path, capsys, name):
    # the base holds IC only, so Seq would register, then, routed (the
    # default), never learn from ppi; IC is taken, which the config gate
    # refuses in the extended prompts key
    base = tmp_path / "ic"
    assert main(["pretrain", "--fasta", str(ws["fasta"]), "--out-dir", str(base),
                 "--steps", "1", *BASE_SETS, "--set", "prompts=IC"]) == 0
    capsys.readouterr()
    rc = main(["inject", "--checkpoint", str(base / "final.bin"), "--prompt", name,
               "--task", "ppi", "--data", str(ws["pairs"]), "--fasta", str(ws["fasta"]),
               "--out", str(tmp_path / "inj"), "--steps", "2"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error" in err
    if name == "IC":
        assert "prompts='IC,IC': duplicate prompt names" in err
    assert not (tmp_path / "inj").exists()


def test_inject_trains_seq_with_routing_off(ws, tmp_path):
    # routed, Seq learns from the conservation loss only, which inject never
    # runs (test_inject_rejects_prompt_names_it_cannot_train); unrouted, it
    # learns from ppi like any other prompt
    base = tmp_path / "ic"
    assert main(["pretrain", "--fasta", str(ws["fasta"]), "--out-dir", str(base),
                 "--steps", "1", *BASE_SETS, "--set", "prompts=IC"]) == 0
    for steps in (2, 0):
        assert main(["inject", "--checkpoint", str(base / "final.bin"), "--prompt", "Seq",
                     "--task", "ppi", "--data", str(ws["pairs"]), "--fasta", str(ws["fasta"]),
                     "--out", str(tmp_path / f"inj{steps}"), "--steps", str(steps),
                     "--set", "routing=false"]) == 0
    trained, untrained = (ckpt.load_model(tmp_path / f"inj{steps}" / "injected.bin")[0]
                          for steps in (2, 0))
    assert tuple(trained.prompts) == ("IC", "Seq")
    assert not np.array_equal(trained.prompts["Seq"].data,
                              untrained.prompts["Seq"].data)


@pytest.mark.parametrize("prompts", ["Seq,", "Seq, ,IC", ",IC", "Seq,,IC", " , "],
                         ids=["trailing", "blank", "leading", "double", "blanks"])
def test_pretrain_rejects_empty_prompt_names(ws, tmp_path, capsys, prompts):
    out = tmp_path / "run"
    rc = main(["pretrain", "--fasta", str(ws["fasta"]), "--out-dir", str(out),
               "--steps", "1", *BASE_SETS, "--set", f"prompts={prompts}"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: prompts=") and "prompt name ''" in err
    assert not out.exists()


def test_pretrain_with_a_blank_prompts_key_has_no_prompts(ws, tmp_path):
    out = tmp_path / "run"
    assert main(["pretrain", "--fasta", str(ws["fasta"]), "--out-dir", str(out),
                 "--steps", "1", *BASE_SETS, "--set", "prompts="]) == 0
    assert tuple(ckpt.load_model(out / "final.bin")[0].prompts) == ()


def test_inject_draws_negatives_for_a_positives_only_file(ws, tmp_path, monkeypatch):
    positives = tmp_path / "positives.tsv"
    positives.write_text("".join(f"p{i:02d}\tp{i + 1:02d}\t1\n" for i in range(8)))
    labels = []
    train_step = O.train_step

    def keep_labels(model, optimizer, mlm_batch, task_batches, *args, **kwargs):
        labels.append(np.concatenate([b.labels for b in task_batches]))
        return train_step(model, optimizer, mlm_batch, task_batches, *args, **kwargs)

    monkeypatch.setattr(O, "train_step", keep_labels)
    assert main(["inject", "--checkpoint", str(ws["final"]), "--prompt", "PPI",
                 "--task", "ppi", "--data", str(positives), "--fasta", str(ws["fasta"]),
                 "--out", str(tmp_path / "inj"), "--steps", "3"]) == 0
    assert len(labels) == 3
    for step_labels in labels:
        assert step_labels.shape[1] == 1
        assert (step_labels == 0.0).sum() == (step_labels == 1.0).sum() > 0


def test_inject_metrics_log(ws, tmp_path):
    inj = tmp_path / "inj2"
    rc = main([
        "inject", "--checkpoint", str(ws["final"]), "--prompt", "Fn",
        "--task", "ppi", "--data", str(ws["pairs"]), "--fasta", str(ws["fasta"]),
        "--out", str(inj), "--steps", "2",
    ])
    assert rc == 0
    rows = _metric_rows(inj)
    assert len(rows) == 2
    assert all(float(r[1]) == 0.0 for r in rows)  # no conservation loss here


def test_eval_ppi_records(ws, tmp_path, capsys):
    rec = tmp_path / "records.csv"
    rc = main([
        "eval", "--checkpoint", str(ws["final"]), "--task", "ppi",
        "--data", str(ws["pairs"]), "--fasta", str(ws["fasta"]), "--out", str(rec),
    ])
    assert rc == 0
    lines = rec.read_text().splitlines()
    assert lines[0].startswith("# config_hash=")
    assert lines[1] == "task,metric,value,prompts"
    body = dict()
    for ln in lines[2:]:
        task, metric, value, prompts = ln.split(",")
        assert task == "ppi" and prompts == "Seq|IC"
        body[metric] = float(value)
    assert set(body) == {"micro_f1", "accuracy"}
    assert all(0.0 <= v <= 1.0 for v in body.values())
    assert capsys.readouterr().out.splitlines()[1:] == lines[1:]


def test_eval_prompt_selection(ws, tmp_path):
    def run(sel):
        rec = tmp_path / "r.csv"
        rc = main([
            "eval", "--checkpoint", str(ws["final"]), "--task", "ppi",
            "--data", str(ws["pairs"]), "--fasta", str(ws["fasta"]),
            "--out", str(rec), "--prompts", sel,
        ])
        assert rc == 0
        return rec.read_text().splitlines()[2:]

    bare = run("")
    assert all(ln.endswith(",") for ln in bare)  # empty prompt field
    seq_only = run("Seq")
    assert all(ln.split(",")[3] == "Seq" for ln in seq_only)
    # the selection reaches the encoder: pooled logits shift with prompts
    model, cfg, _ = ckpt.load_model(ws["final"])
    seq = T.encode("ACDEFGH", cfg.max_len, "q")
    pooled = {sel: model.pool(model.encode(seq, sel)) for sel in ((), ("Seq",))}
    a = model.pair_logits(pooled[()], pooled[()], 1).data
    b = model.pair_logits(pooled[("Seq",)], pooled[("Seq",)], 1).data
    assert not np.array_equal(a, b)


def test_eval_repeated_prompt_exit_2(ws, tmp_path, capsys):
    rec = tmp_path / "r.csv"
    rc = main([
        "eval", "--checkpoint", str(ws["final"]), "--task", "ppi",
        "--data", str(ws["pairs"]), "--fasta", str(ws["fasta"]),
        "--out", str(rec), "--prompts", "Seq,IC,Seq",
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "'Seq'" in err, err
    assert not rec.exists()


def test_eval_unknown_prompt_exit_2(ws, capsys):
    rc = main([
        "eval", "--checkpoint", str(ws["final"]), "--task", "ppi",
        "--data", str(ws["pairs"]), "--fasta", str(ws["fasta"]),
        "--prompts", "Bogus",
    ])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def test_eval_structural_contradiction_exit_2(ws, tmp_path, capsys):
    conf = tmp_path / "heads.conf"
    conf.write_text("heads=8\n")
    for supplied in (["--set", "heads=8"], ["--config", str(conf)]):
        rc = main([
            "eval", "--checkpoint", str(ws["final"]), "--task", "ppi",
            "--data", str(ws["pairs"]), "--fasta", str(ws["fasta"]), *supplied,
        ])
        assert rc == 2
        assert "contradicts checkpoint value" in capsys.readouterr().err


def test_eval_refuses_a_checkpoint_that_names_an_entry_twice(ws, tmp_path, capsys):
    # a second head.regress.b appended, entry count bumped: a loader filling a
    # map by name would keep the last copy and load 123.0
    raw = ws["final"].read_bytes()
    count_at = 16 + struct.unpack_from("<Q", raw, 8)[0]
    count = struct.unpack_from("<Q", raw, count_at)[0]
    name = b"head.regress.b"
    shape = ckpt.load_checkpoint(ws["final"])[1][name.decode()].shape
    entry = (struct.pack(f"<I{len(name)}sI{len(shape)}Q", len(name), name, len(shape), *shape)
             + np.full(shape, 123.0).astype("<f8").tobytes())
    bad = tmp_path / "twice.bin"
    bad.write_bytes(raw[:count_at] + struct.pack("<Q", count + 1) + raw[count_at + 8:] + entry)
    rc = main(["eval", "--checkpoint", str(bad), "--task", "ppi",
               "--data", str(ws["pairs"]), "--fasta", str(ws["fasta"])])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == f"data error: {bad}: entry head.regress.b appears twice\n", err


@pytest.mark.parametrize("declared", ["dims", "config-length"])
def test_eval_rejects_sizes_past_the_end_of_the_checkpoint(ws, tmp_path, capsys, declared):
    # a header may declare far more bytes than the file holds: the loader
    # must refuse it as truncated without allocating the declared size
    bad = tmp_path / "huge.bin"
    if declared == "dims":
        body = (struct.pack("<Q", 0) + struct.pack("<Q", 1) + struct.pack("<I", 1) + b"a"
                + struct.pack("<IQQ", 2, 2**40, 2**20))
    else:
        body = struct.pack("<Q", 2**62) + b"d=16\n"
    bad.write_bytes(ckpt.MAGIC + struct.pack("<I", ckpt.VERSION) + body)
    tracemalloc.start()
    try:
        rc = main([
            "eval", "--checkpoint", str(bad), "--task", "ppi",
            "--data", str(ws["pairs"]), "--fasta", str(ws["fasta"]),
        ])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 1
    err = capsys.readouterr().err
    assert "error:" in err and "truncated checkpoint" in err, err
    assert peak < 2**24, peak


def test_eval_contact_with_truth_scores(ws, tmp_path, capsys):
    # a 30-residue blob inside a 3A cube: every residue pair is a contact,
    # so scoring with the truth map itself must give precision 1.0
    pdb_dir = tmp_path / "pdbs"
    pdb_dir.mkdir()
    rng = np.random.default_rng(5)
    with open(pdb_dir / "blob.pdb", "w") as fh:
        for i in range(30):
            x, y, z = rng.uniform(-1.5, 1.5, size=3)
            fh.write(_atom(i + 1, "CB", "ALA", "A", i + 1, x, y, z))
    maps = tmp_path / "maps"
    rc = main(["build-contacts", "--pdb-dir", str(pdb_dir), "--out-dir", str(maps)])
    assert rc == 0
    assert (maps / "blob_A.cmap").exists()
    report = (maps / "report.txt").read_text()
    assert report.startswith("# config_hash=")
    assert "blob_A.cmap: n=30" in report

    rec = tmp_path / "contact.csv"
    rc = main([
        "eval", "--checkpoint", str(ws["final"]), "--task", "contact",
        "--maps-dir", str(maps), "--scores-dir", str(maps), "--out", str(rec),
    ])
    assert rc == 0
    values = {}
    for ln in rec.read_text().splitlines()[2:]:
        _, metric, value, _ = ln.split(",")
        values[metric] = float(value)
    assert values["p_at_l2_short"] == 1.0
    assert values["p_at_l2_medium"] == 1.0
    assert values["p_at_l2_long"] == 1.0
    assert values["truncated_evals"] == 0.0


def test_eval_contact_names_both_files_when_the_score_map_size_differs(ws, tmp_path, capsys):
    maps, scores = tmp_path / "maps", tmp_path / "scores"
    for root, n in ((maps, 20), (scores, 12)):
        root.mkdir()
        D.write_contact_map(D.ContactMap(n=n, bits=np.zeros((n, n), dtype=bool)),
                            root / "x_A.cmap")
    rc = main(["eval", "--checkpoint", str(ws["final"]), "--task", "contact",
               "--maps-dir", str(maps), "--scores-dir", str(scores)])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"data error: {scores / 'x_A.cmap'}: n=12 but {maps / 'x_A.cmap'} has n=20\n")


def test_eval_contact_with_model_scores(ws, tmp_path):
    # model-scored route: sequence length must match the map
    pdb_dir = tmp_path / "pdbs"
    pdb_dir.mkdir()
    rng = np.random.default_rng(6)
    with open(pdb_dir / "tiny.pdb", "w") as fh:
        for i in range(10):
            x, y, z = rng.uniform(-4, 4, size=3)
            fh.write(_atom(i + 1, "CB", "ALA", "A", i + 1, x, y, z))
    maps = tmp_path / "maps"
    assert main(["build-contacts", "--pdb-dir", str(pdb_dir),
                 "--out-dir", str(maps)]) == 0
    fasta = tmp_path / "chains.fasta"
    fasta.write_text(">tiny_A\nACDEFGHIKL\n")
    rc = main([
        "eval", "--checkpoint", str(ws["final"]), "--task", "contact",
        "--maps-dir", str(maps), "--fasta", str(fasta),
    ])
    assert rc == 0


def test_eval_ss_and_regress(ws, tmp_path):
    ss = tmp_path / "ss.tsv"
    ss.write_text("s1\tACDEF\t01210\ns2\tWYK\t002\n")
    rec = tmp_path / "ss.csv"
    rc = main([
        "eval", "--checkpoint", str(ws["final"]), "--task", "ss",
        "--data", str(ss), "--classes", "3", "--out", str(rec),
    ])
    assert rc == 0
    (line,) = rec.read_text().splitlines()[2:]
    assert line.startswith("ss,q3,")
    assert 0.0 <= float(line.split(",")[2]) <= 1.0

    reg = tmp_path / "reg.tsv"
    reg.write_text("r1\tACDEF\t0.5\nr2\tWYKRH\t-1.25\nr3\tMNPQS\t2.0\nr4\tGGGG\t0.0\n")
    rec2 = tmp_path / "reg.csv"
    rc = main([
        "eval", "--checkpoint", str(ws["final"]), "--task", "regress",
        "--data", str(reg), "--out", str(rec2),
    ])
    assert rc == 0
    (line,) = rec2.read_text().splitlines()[2:]
    assert line.startswith("regress,spearman,")
    rho = float(line.split(",")[2])
    assert -1.0 <= rho <= 1.0


def _counting_encodes(monkeypatch) -> list:
    """Patch ProteinEncoder.encode to count its calls into the returned list."""
    calls, encode = [], ProteinEncoder.encode
    monkeypatch.setattr(ProteinEncoder, "encode",
                        lambda *a, **k: calls.append(1) or encode(*a, **k))
    return calls


@pytest.mark.parametrize("labels", ["0x1", "01", "019"])
def test_eval_ss_rejects_a_bad_label_row(ws, tmp_path, capsys, monkeypatch, labels):
    # a bad row stops the run before any encode, naming its line and id;
    # 019 holds a 9 past --classes 3
    ss = tmp_path / "ss.tsv"
    ss.write_text(f"s1\tACDEF\t01210\ns2\tWYK\t{labels}\n")
    encodes = _counting_encodes(monkeypatch)
    rc = main(["eval", "--checkpoint", str(ws["final"]), "--task", "ss", "--data", str(ss),
               "--classes", "3"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {ss}:2: row 's2'"), err
    assert "Traceback" not in err and encodes == []


@pytest.mark.parametrize("value", ["nan", "inf", "-Infinity", "one"])
def test_eval_regress_rejects_non_finite_truths(ws, tmp_path, capsys, monkeypatch, value):
    reg = tmp_path / "reg.tsv"
    reg.write_text(f"r1\tACDEF\t0.5\nr2\tWYKRH\t{value}\nr3\tMNPQS\t2.0\n")
    encodes = _counting_encodes(monkeypatch)
    rc = main(["eval", "--checkpoint", str(ws["final"]), "--task", "regress",
               "--data", str(reg)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {reg}:2: row 'r2'"), err
    assert "not a finite number" in err and "Traceback" not in err and encodes == []


@pytest.mark.parametrize("task, rows", [
    ("ss", "s1\tACDEF\t01210\ns2\tWYK\t002\ns1\tWYK\t210\n"),
    ("regress", "r1\tACDEF\t0.5\nr2\tWYKRH\t-1.25\nr1\tMNPQS\t2.0\n"),
], ids=["ss", "regress"])
def test_eval_rejects_a_repeated_row_id(ws, tmp_path, capsys, monkeypatch, task, rows):
    # a row id names one row, as a FASTA id names one record; a repeat stops
    # the run before any encode, naming its line and id
    data = tmp_path / f"{task}.tsv"
    data.write_text(rows)
    encodes = _counting_encodes(monkeypatch)
    rc = main(["eval", "--checkpoint", str(ws["final"]), "--task", task, "--data", str(data)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {data}:3: row '{rows[:2]}'"), err
    assert "Traceback" not in err and encodes == []


@pytest.mark.parametrize("task, rows", [
    ("ss", "s1\tACDEF\t01210\ns2\t\t\n"),
    ("regress", "r1\tACDE\t0.5\nr2\t\t1.5\n"),
], ids=["ss", "regress"])
def test_eval_rejects_an_empty_sequence_row(ws, tmp_path, capsys, monkeypatch, task, rows):
    # a row without residues stops the run before any encode, naming its
    # line and id, as parse_fasta does for a FASTA record
    data = tmp_path / f"{task}.tsv"
    data.write_text(rows)
    encodes = _counting_encodes(monkeypatch)
    rc = main(["eval", "--checkpoint", str(ws["final"]), "--task", task, "--data", str(data)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {data}:2: row '{rows[0]}2' has an empty sequence"), err
    assert "Traceback" not in err and encodes == []


def test_eval_regress_on_one_row_names_the_file(ws, tmp_path, capsys):
    # a rank correlation needs two rows; the error names the TSV, not the
    # metric function
    reg = tmp_path / "reg.tsv"
    reg.write_text("# one row\nr1\tACDEF\t0.5\n")
    rec = tmp_path / "reg.csv"
    rc = main(["eval", "--checkpoint", str(ws["final"]), "--task", "regress",
               "--data", str(reg), "--out", str(rec)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("data error:") and str(reg) in err and "two rows" in err, err
    assert "spearman" not in err and "Traceback" not in err
    assert not rec.exists()


@pytest.mark.parametrize("rows", ["# a comment\n\n", "p00\tp00\t1\np01\tp01\t0\n"],
                         ids=["comments", "self-loops"])
@pytest.mark.parametrize("command", ["eval", "inject", "pretrain", "split"])
def test_interaction_file_without_rows_is_a_data_error(ws, tmp_path, capsys, command, rows):
    tsv, out = tmp_path / "empty.tsv", tmp_path / "out"
    tsv.write_text(rows)
    task = ["--task", "ppi", "--data", str(tsv), "--fasta", str(ws["fasta"]), "--out", str(out)]
    argv = {
        "eval": ["eval", "--checkpoint", str(ws["final"]), *task],
        "inject": ["inject", "--checkpoint", str(ws["final"]), "--prompt", "PPI", *task],
        "pretrain": ["pretrain", "--fasta", str(ws["fasta"]), "--ppi", str(tsv),
                     "--out-dir", str(out), "--steps", "1", *BASE_SETS],
        "split": ["split", "--ppi", str(tsv), "--mode", "bfs", "--fraction", "0.5",
                  "--out-prefix", str(out / "s")],
    }[command]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"data error: {tsv}: no interaction rows" in err and "Traceback" not in err, err
    assert list(tmp_path.iterdir()) == [tsv]


@pytest.mark.parametrize("command", ["eval", "inject", "pretrain"])
def test_interaction_endpoint_without_a_sequence_is_a_data_error(ws, tmp_path, capsys,
                                                                command):
    tsv, out = tmp_path / "pairs.tsv", tmp_path / "out"
    tsv.write_text("p00\tzz\t1\np01\tp02\t1\nyy\tp03\t0\n")
    task = ["--task", "ppi", "--data", str(tsv), "--fasta", str(ws["fasta"]), "--out", str(out)]
    argv = {
        "eval": ["eval", "--checkpoint", str(ws["final"]), *task],
        "inject": ["inject", "--checkpoint", str(ws["final"]), "--prompt", "PPI", *task],
        "pretrain": ["pretrain", "--fasta", str(ws["fasta"]), "--ppi", str(tsv),
                     "--out-dir", str(out), "--steps", "1", *BASE_SETS],
    }[command]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "data error: no sequence for interaction endpoints: ['yy', 'zz']" in err, err
    assert "Traceback" not in err and list(tmp_path.iterdir()) == [tsv]


@pytest.mark.parametrize("case", ["threshold-nan", "lambda-inf", "negative-cutoff"])
def test_non_finite_or_negative_config_values_exit_2(ws, tmp_path, capsys, case):
    out = tmp_path / "out"
    argv, key = {
        "threshold-nan": (["build-contacts", "--pdb-dir", str(_blob_pdb_dir(tmp_path)),
                           "--threshold", "nan"], "'contact_threshold'"),
        "lambda-inf": (["pretrain", "--fasta", str(ws["fasta"]), "--ppi", str(ws["pairs"]),
                        "--steps", "2", *BASE_SETS, "--set", "lambda=inf"], "'lambda'"),
        "negative-cutoff": (["probe", "--checkpoint", str(ws["final"]), "--fasta",
                             str(ws["fasta"]), "--prompt", "IC", "--cutoff", "-1"],
                            "probe_cutoff"),
    }[case]
    assert main([*argv, "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and key in err and "Traceback" not in err, err
    assert not out.exists()


@pytest.mark.parametrize("case", ["pretrain-seed", "split-seed", "beta1", "resume-past-steps",
                                  "set-item", "config-line"])
def test_bad_seed_batch_size_or_beta_exits_2_before_any_output(ws, tmp_path, capsys, case):
    tsv = tmp_path / "pairs.tsv"
    tsv.write_text("a\tb\t1\nb\tc\t1\nc\td\t1\n")
    conf = tmp_path / "bad.cfg"
    conf.write_text("# a comment\nseed=3\njust words\n")
    pretrain = ["pretrain", "--fasta", str(ws["fasta"]), "--out-dir", str(tmp_path / "out"),
                "--steps", "2", *BASE_SETS]
    argv, key = {
        "pretrain-seed": ([*pretrain, "--seed", "-1"], "seed"),
        "split-seed": (["split", "--ppi", str(tsv), "--mode", "bfs", "--fraction", "0.5",
                        "--seed", "-1", "--out-prefix", str(tmp_path / "out" / "s")], "seed"),
        # Adam's betas are constants: no value may be set, not even 0.9
        "beta1": (["eval", "--checkpoint", str(ws["final"]), "--task", "ppi", "--data",
                   str(ws["pairs"]), "--fasta", str(ws["fasta"]), "--set", "beta1=0.9",
                   "--out", str(tmp_path / "eval.csv")], "unknown config key 'beta1'"),
        # ckpt_step4.bin holds step 4, two past --steps
        "resume-past-steps": ([*pretrain, "--resume", str(ws["out"] / "ckpt_step4.bin")],
                              "at step 4, past steps=2"),
        # a --set item is never a comment, and a bad config line names its place
        "set-item": ([*pretrain, "--set", "# x"], "--set: '# x' is not key=value"),
        "config-line": ([*pretrain, "--config", str(conf)],
                        f"{conf}:3: 'just words' is not key=value"),
    }[case]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error:") and key in captured.err, captured.err
    assert "Traceback" not in captured.err and not captured.out
    assert sorted(tmp_path.iterdir()) == [conf, tsv]


# one row per RunConfig.validate rule, each breaking it through the config
# keys it names
GATE_TABLE = {
    "d": {"d": "0"}, "layers": {"layers": "0"}, "heads": {"heads": "0"},
    "indivisible": {"heads": "3"}, "max_len": {"max_len": "1"},
    "prompt-name": {"prompts": "Seq,I.C"}, "prompt-twice": {"prompts": "Seq,Seq"},
    "lambda": {"lambda": "-1"}, "alpha_ppi": {"alpha_ppi": "-0.5"},
    "mlm_reduction": {"mlm_reduction": "max"},
    "mask_rate-0": {"mask_rate": "0"}, "mask_rate-1": {"mask_rate": "1"},
    "lr": {"lr": "0"}, "steps": {"steps": "-1"},
    "checkpoint_every": {"checkpoint_every": "0"}, "keep_last": {"keep_last": "0"},
    "batch_seqs": {"batch_seqs": "0"}, "batch_pairs": {"batch_pairs": "0"},
    "seed": {"seed": "-1"}, "contact_threshold": {"contact_threshold": "0"},
    "probe_cutoff": {"probe_cutoff": "-0.5"},
}


def _gate_argv(values: dict) -> list:
    # --steps wins over --set steps=, so steps goes through the flag
    argv = []
    for key, value in values.items():
        argv += ["--steps", value] if key == "steps" else ["--set", f"{key}={value}"]
    return argv


def test_gate_table_covers_every_config_key():
    # a key with a rule has a row; routing, fasta and ppi have no rule
    keys = {key for values in GATE_TABLE.values() for key in values}
    fields = {_FIELD_TO_KEY.get(f.name, f.name) for f in dataclasses.fields(RunConfig)}
    assert keys | {"routing", "fasta", "ppi"} == fields
    assert not keys & {"routing", "fasta", "ppi"}


@pytest.mark.parametrize("case", list(GATE_TABLE))
def test_every_config_rule_exits_2_before_any_output(ws, tmp_path, capsys, case):
    out = tmp_path / "out"
    rc = main(["pretrain", "--fasta", str(ws["fasta"]), "--ppi", str(ws["pairs"]),
               "--out-dir", str(out), "--steps", "2", *BASE_SETS,
               *_gate_argv(GATE_TABLE[case])])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error:") and "Traceback" not in captured.err
    # the error names a key to fix
    assert any(re.search(rf"\b{key}\b", captured.err) for key in GATE_TABLE[case]), captured.err
    assert not captured.out and not out.exists()


def test_resume_with_a_negative_probability_leaves_its_directory_alone(ws, tmp_path, capsys):
    # a resume writes into its checkpoint's directory by default; the gate
    # refuses the config (a negative mask_rate) before the log is restarted
    run = tmp_path / "run"
    shutil.copytree(ws["out"], run)
    before = {p.name: p.read_bytes() for p in run.iterdir()}
    rc = main(["pretrain", "--fasta", str(ws["fasta"]), "--ppi", str(ws["pairs"]),
               "--steps", "4", "--resume", str(run / "ckpt_step2.bin"),
               "--set", "mask_rate=-0.1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: mask_rate must be in (0, 1), got -0.1")
    assert "Traceback" not in err
    assert {p.name: p.read_bytes() for p in run.iterdir()} == before


BAD_OPTIMIZER_STATES = {
    # case: (entry of ckpt_step2.bin, its new value; None deletes it)
    "negative-step": ("opt.step", np.asarray(-1.0)),
    "nan-step": ("opt.step", np.asarray(np.nan)),
    "fractional-step": ("opt.step", np.asarray(1.5)),
    "moment-shape": ("opt.m.head.mlm.b", np.zeros(1)),
    "unpaired-moment": ("opt.v.head.mlm.b", None),
}


def _bad_optimizer_state(ws, tmp_path, case) -> Path:
    """A copy of ws's run whose ckpt_step2.bin carries the case's state."""
    entry, value = BAD_OPTIMIZER_STATES[case]
    run = tmp_path / "run"
    shutil.copytree(ws["out"], run)
    text, entries = ckpt.load_checkpoint(run / "ckpt_step2.bin")
    if value is None:
        del entries[entry]
    else:
        entries[entry] = value
    ckpt.save_checkpoint(run / "ckpt_step2.bin", text, entries)
    return run


def _refused_state(capsys, run, entry) -> None:
    """The refusal names the checkpoint and entry, and nothing is printed."""
    captured = capsys.readouterr()
    err = captured.err
    assert err.startswith(f"data error: {run / 'ckpt_step2.bin'}: ") and entry in err, err
    assert "Traceback" not in err and not captured.out


@pytest.mark.parametrize("case", BAD_OPTIMIZER_STATES)
def test_resume_rejects_a_bad_optimizer_state(ws, tmp_path, capsys, case):
    # Adam could not continue the state: the resume refuses it before the
    # vocabulary or the log of the checkpoint's own directory is rewritten
    run = _bad_optimizer_state(ws, tmp_path, case)
    before = {p.name: p.read_bytes() for p in run.iterdir()}
    rc = main(["pretrain", "--fasta", str(ws["fasta"]), "--ppi", str(ws["pairs"]),
               "--steps", "4", "--resume", str(run / "ckpt_step2.bin")])
    assert rc == 1
    _refused_state(capsys, run, BAD_OPTIMIZER_STATES[case][0])
    assert {p.name: p.read_bytes() for p in run.iterdir()} == before


@pytest.mark.parametrize("case", BAD_OPTIMIZER_STATES)
@pytest.mark.parametrize("command", ["inject", "eval"])
def test_every_checkpoint_reader_rejects_a_bad_optimizer_state(ws, tmp_path, capsys, command,
                                                               case):
    # load_model is the checkpoint's one gate, so inject and eval refuse the
    # state a resume refuses, and write nothing
    run = _bad_optimizer_state(ws, tmp_path, case)
    out = tmp_path / "out"
    data = ["--task", "ppi", "--data", str(ws["pairs"]), "--fasta", str(ws["fasta"])]
    argv = {"inject": ["inject", "--prompt", "PPI", *data, "--out", str(out)],
            "eval": ["eval", *data, "--out", str(out)]}[command]
    rc = main([*argv, "--checkpoint", str(run / "ckpt_step2.bin")])
    assert rc == 1
    _refused_state(capsys, run, BAD_OPTIMIZER_STATES[case][0])
    assert not out.exists()


# run by the SIGKILL tests: a CLI that SIGKILLs its own process on the
# count-th call of objectives.train_step ("step") or of Path.replace, the
# rename that ends every atomic write ("rename": pretrain's vocab.txt, then
# metrics.csv, each checkpoint and the final one)
KILLING_CLI = textwrap.dedent("""
    import os, pathlib, signal, sys
    from protprompt import objectives
    from protprompt.cli import main

    hook, count = sys.argv[1], int(sys.argv[2])
    owner, name = {"step": (objectives, "train_step"), "rename": (pathlib.Path, "replace")}[hook]
    original, calls = getattr(owner, name), []

    def killing(*args, **kwargs):
        calls.append(None)
        if len(calls) == count:
            os.kill(os.getpid(), signal.SIGKILL)
        return original(*args, **kwargs)

    setattr(owner, name, killing)
    sys.exit(main(sys.argv[3:]))
""")


def test_sigkilled_pretrain_resumes_to_the_uninterrupted_bytes(ws, tmp_path):
    # a real process killed with no chance to clean up: at a seeded step,
    # with the log rows since the last checkpoint still buffered, and at a
    # seeded rename, with a whole .tmp file written but not in place. Resumed
    # from its newest checkpoint (restarted if it has none), it must write
    # the uninterrupted run's final.bin and metrics.csv (ms blanked)
    steps, every = 8, 2
    argv = ["pretrain", "--fasta", str(ws["fasta"]), "--ppi", str(ws["pairs"]), "--steps",
            str(steps), "--seed", "5", *BASE_SETS, "--set", f"checkpoint_every={every}"]

    def outputs(out):
        log = (out / "metrics.csv").read_text().splitlines(keepends=True)
        return (out / "final.bin").read_bytes(), [
            line.rsplit(",", 1)[0] if line[0].isdigit() else line for line in log]

    assert main([*argv, "--out-dir", str(tmp_path / "straight")]) == 0
    want = outputs(tmp_path / "straight")
    rng = np.random.default_rng(19)
    points = [("step", int(rng.integers(1, steps + 1))),
              ("rename", int(rng.integers(1, steps // every + 3)))]
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    for hook, count in points:
        out = tmp_path / f"{hook}{count}"
        proc = subprocess.run(
            [sys.executable, "-c", KILLING_CLI, hook, str(count), *argv, "--out-dir", str(out)],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == -signal.SIGKILL, proc.stdout + proc.stderr
        assert not (out / "final.bin").exists()
        ckpts = sorted(out.glob("ckpt_step*.bin"), key=lambda p: int(p.stem[9:]))
        resume = ["--resume", str(ckpts[-1])] if ckpts else []
        assert main([*argv, "--out-dir", str(out), *resume]) == 0
        assert outputs(out) == want, (hook, count)


def test_sigkilled_inject_reruns_to_the_uninterrupted_bytes(ws, tmp_path):
    # inject cannot resume, so the same command is run again into the killed
    # run's directory. It must leave the uninterrupted run's files: the same
    # injected.bin, metrics.csv (ms blanked) and rolling checkpoints, and no
    # .tmp file or older checkpoint beside them
    steps, every = 8, 2

    def run_argv(out):
        return [*_training_argv(ws, "inject", out), "--steps", str(steps), "--seed", "5",
                "--set", f"checkpoint_every={every}", "--set", "keep_last=2"]

    def outputs(out):
        return {p.name: _log_lines(out) if p.name == "metrics.csv" else p.read_bytes()
                for p in out.iterdir()}

    assert main(run_argv(tmp_path / "straight")) == 0
    want = outputs(tmp_path / "straight")
    assert sorted(want) == ["ckpt_step6.bin", "ckpt_step8.bin", "injected.bin", "metrics.csv"]
    rng = np.random.default_rng(22)
    # renames: metrics.csv, the steps // every checkpoints, then injected.bin
    points = [("step", int(rng.integers(1, steps + 1))),
              ("rename", int(rng.integers(1, steps // every + 3)))]
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    for hook, count in points:
        out = tmp_path / f"{hook}{count}"
        proc = subprocess.run([sys.executable, "-c", KILLING_CLI, hook, str(count),
                               *run_argv(out)], capture_output=True, text=True, env=env,
                              timeout=60)
        assert proc.returncode == -signal.SIGKILL, proc.stdout + proc.stderr
        assert not (out / "injected.bin").exists()
        assert main(run_argv(out)) == 0
        assert outputs(out) == want, (hook, count)


def _non_utf8_input(ws, path):
    """(argv, file) for a command whose named input holds a byte that is not UTF-8."""
    common = ["--checkpoint", str(ws["final"])]
    maps = path / "maps"
    maps.mkdir()
    pdbs = path / "pdbs"
    pdbs.mkdir()
    return {
        "fasta": (["pretrain", "--fasta", "{}", "--out-dir", str(path / "o"), "--steps", "1"],
                  path / "bad.fasta"),
        "ppi": (["eval", *common, "--task", "ppi", "--data", "{}", "--fasta", str(ws["fasta"])],
                path / "bad.tsv"),
        "labeled": (["eval", *common, "--task", "regress", "--data", "{}"], path / "bad.tsv"),
        "cmap": (["eval", *common, "--task", "contact", "--maps-dir", str(maps),
                  "--scores-dir", str(maps)], maps / "bad.cmap"),
        "pdb": (["build-contacts", "--pdb-dir", str(pdbs), "--out-dir", str(path / "m")],
                pdbs / "bad.pdb"),
        "config": (["eval", *common, "--task", "ppi", "--config", "{}"], path / "bad.cfg"),
    }


@pytest.mark.parametrize("kind", ["fasta", "ppi", "labeled", "cmap", "pdb", "config"])
def test_non_utf8_input_is_a_data_error(ws, tmp_path, capsys, kind):
    argv, bad = _non_utf8_input(ws, tmp_path)[kind]
    bad.write_bytes(b">p1\nAC\xffD\n" if kind == "fasta" else b"a\tb\t\xff1\n")
    rc = main([str(bad) if a == "{}" else a for a in argv])
    assert rc == 1
    err = capsys.readouterr().err
    line = 2 if kind == "fasta" else 1
    assert f"{bad}:{line}: " in err and "utf-8" in err and "Traceback" not in err, err


def test_checkpoint_naming_retired_keys_still_loads(ws, tmp_path, capsys):
    # an older release stored alpha_contact, alpha_ss, alpha_regress and
    # weight_decay in every checkpoint, and none of them weighted any loss;
    # mask_mode=additive named the attention the code still runs, and
    # RETIRED_DEFAULTS the constants Adam and the masking split run
    text, entries = ckpt.load_checkpoint(ws["final"])
    retired = ["alpha_contact=0.25", "alpha_regress=3.0", "alpha_ss=0.5", "weight_decay=0.0",
               "mask_mode=additive", *(f"{k}={v}" for k, v in RETIRED_DEFAULTS.items())]
    old = tmp_path / "old.bin"
    ckpt.save_checkpoint(old, "\n".join(sorted(text.splitlines() + retired)) + "\n", entries)
    _, cfg, _ = ckpt.load_model(old)
    assert cfg.to_text() == text
    assert not any(key.split("=")[0] in cfg.to_text() for key in retired)

    def eval_ppi(path):
        rc = main(["eval", "--checkpoint", str(path), "--task", "ppi",
                   "--data", str(ws["pairs"]), "--fasta", str(ws["fasta"])])
        assert rc == 0
        return capsys.readouterr().out

    assert eval_ppi(old) == eval_ppi(ws["final"])
    probes = [tmp_path / "probe-old", tmp_path / "probe-new"]
    for path, probe in zip((old, ws["final"]), probes):
        assert main(["probe", "--checkpoint", str(path), "--fasta", str(ws["fasta"]),
                     "--prompt", "IC", "--out-dir", str(probe)]) == 0
    assert [p.read_bytes() for p in sorted(probes[0].iterdir())] == \
        [p.read_bytes() for p in sorted(probes[1].iterdir())]
    new = tmp_path / "new" / "final.bin"
    new.parent.mkdir()
    shutil.copy(ws["final"], new)
    resumed = [tmp_path / "resumed-old", tmp_path / "resumed-new"]
    for path, out in zip((old, new), resumed):
        assert main(["pretrain", "--resume", str(path), "--fasta", str(ws["fasta"]),
                     "--ppi", str(ws["pairs"]), "--steps", "5", "--out-dir", str(out)]) == 0
    assert (resumed[0] / "final.bin").read_bytes() == (resumed[1] / "final.bin").read_bytes()
    inj = tmp_path / "inj"
    rc = main(["inject", "--checkpoint", str(old), "--prompt", "PPI", "--task", "ppi",
               "--data", str(ws["pairs"]), "--fasta", str(ws["fasta"]),
               "--out", str(inj), "--steps", "1"])
    assert rc == 0
    stored, _ = ckpt.load_checkpoint(inj / "injected.bin")
    assert "alpha_ss" not in stored and "weight_decay" not in stored
    rc = main(["eval", "--checkpoint", str(old), "--task", "ppi", "--set", "alpha_ss=0.5",
               "--data", str(ws["pairs"]), "--fasta", str(ws["fasta"])])
    assert rc == 2
    assert "unknown config key 'alpha_ss'" in capsys.readouterr().err


# the values Adam and the masking split run, as checkpoints stored them
# while they were config keys
RETIRED_DEFAULTS = {"beta1": "0.9", "beta2": "0.999", "adam_eps": "1e-08",
                    "warmup_updates": "0", "mask_prob_mask": "0.8", "mask_prob_random": "0.1",
                    "mask_prob_keep": "0.1"}


def _stored_value_is_refused(ws, tmp_path, capsys, line: str, want: str) -> None:
    """A copy of ws's final.bin whose stored config also holds line is
    refused by eval, inject, probe and pretrain --resume with exit 2 and
    want in the error, and nothing is written."""
    text, entries = ckpt.load_checkpoint(ws["final"])
    old = tmp_path / "old" / "stored.bin"
    old.parent.mkdir()
    ckpt.save_checkpoint(old, "".join(sorted([*text.splitlines(True), line + "\n"])), entries)
    data = ["--data", str(ws["pairs"]), "--fasta", str(ws["fasta"])]
    out = tmp_path / "out"
    for argv in (["eval", "--checkpoint", str(old), "--task", "ppi", *data,
                  "--out", str(out / "eval.csv")],
                 ["inject", "--checkpoint", str(old), "--prompt", "PPI", "--task", "ppi",
                  *data, "--out", str(out), "--steps", "1"],
                 ["probe", "--checkpoint", str(old), "--fasta", str(ws["fasta"]),
                  "--prompt", "IC", "--out-dir", str(out)],
                 ["pretrain", "--resume", str(old), "--fasta", str(ws["fasta"]),
                  "--out-dir", str(out), "--steps", "5"]):
        assert main(argv) == 2, argv[0]
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {old}: ") and want in err, err
        assert "Traceback" not in err
        assert not out.exists() and os.listdir(old.parent) == ["stored.bin"], argv[0]


@pytest.mark.parametrize("key", list(RETIRED_DEFAULTS))
def test_checkpoint_storing_another_adam_or_masking_value_is_refused(ws, tmp_path, capsys,
                                                                    key):
    # its weights were trained with a value the code no longer runs
    _stored_value_is_refused(ws, tmp_path, capsys, f"{key}=0.5",
                             f"stored {key}=0.5 is no longer supported; only "
                             f"{key}={RETIRED_DEFAULTS[key]} loads")


def test_checkpoint_storing_literal_mask_mode_is_refused(ws, tmp_path, capsys):
    # its weights were trained with prompt rows normalised over the input
    # keys, which the one attention path no longer computes
    _stored_value_is_refused(ws, tmp_path, capsys, "mask_mode=literal", "mask_mode")


@pytest.mark.parametrize("line,want", [
    ("oops", "stored config: 'oops' is not key=value"),
    ("zz=1", "unknown config key 'zz'"),
    ("mlm_reduction=zzz", "mlm_reduction must be sum or mean, got 'zzz'"),
], ids=["malformed", "unknown-key", "gate"])
def test_a_stored_config_error_names_its_checkpoint(ws, tmp_path, capsys, line, want):
    # a retired key's other value is checked the same way, by the tests above
    _stored_value_is_refused(ws, tmp_path, capsys, line, want)


def test_split_cli_matches_library(tmp_path, capsys):
    tsv = tmp_path / "five.tsv"
    tsv.write_text("a\tb\t1\na\tc\t1\nb\td\t0\nc\te\t1\n")
    prefix = tmp_path / "splits" / "five"
    rc = main(["split", "--ppi", str(tsv), "--mode", "dfs",
               "--fraction", "0.5", "--seed", "11", "--out-prefix", str(prefix)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "mode=dfs" in out and "root=a" in out and "selected=3" in out

    graph, _ = D.parse_ppi_tsv(tsv)
    spec = D.split_graph(graph, "dfs", 0.5, 11)
    train_graph, _ = D.parse_ppi_tsv(f"{prefix}_train.tsv")
    test_graph, _ = D.parse_ppi_tsv(f"{prefix}_test.tsv")
    assert set(train_graph.edges) == set(spec.train_edges) == {("c", "e")}
    assert set(test_graph.edges) == set(spec.test_edges)
    # labels survive the round trip
    assert test_graph.edges[("b", "d")].tolist() == [0]


def test_build_contacts_keeps_going_after_bad_file(tmp_path, capsys):
    pdb_dir = tmp_path / "pdbs"
    pdb_dir.mkdir()
    (pdb_dir / "bad.pdb").write_text("ATOM      1  CA  ALA A   1\n")
    # a residue with neither CB nor CA is skipped before its chain opens, so
    # chain B yields no map and a file of such residues no chain at all
    (pdb_dir / "bare.pdb").write_text(_atom(1, "N", "ALA", "A", 1, 0, 0, 0))
    # a chain id names its map, so one that is not a letter, a digit or blank
    # is refused before any map of its file is written
    (pdb_dir / "chain.pdb").write_text(_atom(1, "CB", "ALA", "A", 1, 0, 0, 0)
                                       + _atom(2, "CB", "ALA", "/", 1, 0, 0, 0))
    (pdb_dir / "good.pdb").write_text(
        "ATOM      1  CB  ALA A   1       0.000   0.000   0.000  1.00  0.00\n"
        "ATOM      2  CB  SER A   2       3.000   0.000   0.000  1.00  0.00\n"
        + _atom(3, "N", "GLY", "B", 1, 0, 0, 0)
    )
    maps = tmp_path / "maps"
    rc = main(["build-contacts", "--pdb-dir", str(pdb_dir), "--out-dir", str(maps)])
    assert rc == 1
    assert sorted(p.name for p in maps.iterdir()) == ["good_A.cmap", "report.txt"]
    report = (maps / "report.txt").read_text()
    assert "error:" in report and "bad.pdb" in report
    assert f"error: {pdb_dir / 'bare.pdb'}: no usable ATOM records found" in report
    assert (f"error: {pdb_dir / 'chain.pdb'}:2: chain id '/' is not a letter, a digit or blank"
            in report)
    assert "chain B residue 1 (GLY) has neither CB nor CA; skipped" in report
    assert "good_A.cmap: n=2" in report
    assert "Traceback" not in capsys.readouterr().err


def test_build_contacts_into_a_used_directory_exits_2_and_changes_nothing(tmp_path, capsys):
    maps = tmp_path / "maps"
    for stem in ("a", "b"):
        pdbs = tmp_path / stem
        pdbs.mkdir()
        (pdbs / f"{stem}.pdb").write_text(_atom(1, "CB", "ALA", "A", 1, 0, 0, 0)
                                          + _atom(2, "CB", "SER", "A", 2, 3, 0, 0))
    assert main(["build-contacts", "--pdb-dir", str(tmp_path / "a"), "--out-dir", str(maps)]) == 0
    capsys.readouterr()
    # the report names the run's maps, so it is named first; a stray map alone
    # also marks the directory as used
    for used in ("report.txt", "a_A.cmap"):
        before = {p.name: p.read_bytes() for p in maps.iterdir()}
        rc = main(["build-contacts", "--pdb-dir", str(tmp_path / "b"), "--out-dir", str(maps)])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"config error: {maps / used}: the output directory holds another run's files; "
            "write this run to a new one\n")
        assert {p.name: p.read_bytes() for p in maps.iterdir()} == before
        (maps / "report.txt").unlink(missing_ok=True)


def test_build_contacts_empty_dir_is_ok(tmp_path):
    pdb_dir = tmp_path / "empty"
    pdb_dir.mkdir()
    rc = main(["build-contacts", "--pdb-dir", str(pdb_dir),
               "--out-dir", str(tmp_path / "maps")])
    assert rc == 0


@pytest.mark.parametrize("command", ["pretrain", "probe"])
def test_illegal_residue_names_its_sequence_and_leaves_no_output(ws, tmp_path, capsys,
                                                                 command):
    fasta, out = tmp_path / "bad.fasta", tmp_path / "out"
    fasta.write_text(">p1\nACDEFG\n>p2\nACDBXK\n")
    argv = {
        "pretrain": ["pretrain", "--fasta", str(fasta), "--out-dir", str(out), "--steps", "1",
                     *BASE_SETS],
        "probe": ["probe", "--checkpoint", str(ws["final"]), "--fasta", str(fasta),
                  "--prompt", "IC", "--out-dir", str(out)],
    }[command]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "sequence p2: illegal residue 'B' at position 4" in err, err
    assert "Traceback" not in err and not out.exists()


def test_probe_cli_writes_per_sequence_csv(ws, tmp_path):
    out = tmp_path / "probes"
    rc = main([
        "probe", "--checkpoint", str(ws["final"]), "--fasta", str(ws["fasta"]),
        "--prompt", "IC", "--cutoff", "0.0", "--out-dir", str(out),
    ])
    assert rc == 0
    files = sorted(out.glob("*.csv"))
    assert len(files) == 12
    lines = files[0].read_text().splitlines()
    assert lines[0].startswith("# config_hash=")
    assert lines[1] == "index,residue,distance,flagged"
    assert all(ln.endswith(",1") for ln in lines[2:])  # cutoff 0 flags all


def test_probe_rejects_an_unknown_prompt_and_leaves_no_output(ws, tmp_path, capsys):
    out = tmp_path / "probes"
    rc = main(["probe", "--checkpoint", str(ws["final"]), "--fasta", str(ws["fasta"]),
               "--prompt", "Nope", "--out-dir", str(out)])
    assert rc == 2
    assert "config error: unknown prompt 'Nope'" in capsys.readouterr().err
    assert not out.exists()


def test_probe_rejects_an_empty_fasta(ws, tmp_path, capsys):
    # the FASTA is read before the prompt is checked, so the reader's gate
    # refuses an empty file first, and no directory is made
    fasta, out = tmp_path / "empty.fasta", tmp_path / "probes"
    fasta.write_text("")
    rc = main(["probe", "--checkpoint", str(ws["final"]), "--fasta", str(fasta),
               "--prompt", "Nope", "--out-dir", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == f"data error: {fasta}: empty corpus\n", err
    assert not out.exists()


@pytest.mark.parametrize("bad", ["sub/b", "../escaped", "nul\0"], ids=["slash", "parent", "nul"])
def test_probe_refuses_an_id_that_cannot_name_a_csv(ws, tmp_path, capsys, bad):
    # each id names its CSV in --out-dir: a '/' would put it below or beside
    # that directory, and a NUL cannot be in a file name
    fasta, out = tmp_path / "bad.fasta", tmp_path / "probes"
    fasta.write_text(f">a\nACDEF\n>{bad}\nWYKRH\n")
    rc = main(["probe", "--checkpoint", str(ws["final"]), "--fasta", str(fasta),
               "--prompt", "IC", "--out-dir", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == (f"data error: {fasta}: id {bad!r} holds '/' or NUL, "
                   "so it cannot name a CSV in --out-dir\n"), err
    assert not out.exists() and not (tmp_path / "escaped.csv").exists()


@pytest.mark.parametrize("command", ["pretrain", "inject", "eval-ppi", "eval-contact-scores"])
def test_every_command_refuses_a_fasta_without_a_record(ws, tmp_path, capsys, command):
    # eval --task contact --scores-dir reads no sequence, but still checks
    # a --fasta it is given
    fasta, out = tmp_path / "empty.fasta", tmp_path / "out"
    fasta.write_text("\n\n")
    maps = tmp_path / "maps"
    maps.mkdir()
    D.write_contact_map(D.ContactMap(n=8, bits=np.zeros((8, 8), dtype=bool)), maps / "p00.cmap")
    ppi = ["--task", "ppi", "--data", str(ws["pairs"]), "--fasta", str(fasta)]
    argv = {
        "pretrain": ["pretrain", "--fasta", str(fasta), "--out-dir", str(out), "--steps", "1",
                     *BASE_SETS],
        "inject": ["inject", "--checkpoint", str(ws["final"]), "--prompt", "PPI", *ppi,
                   "--out", str(out)],
        "eval-ppi": ["eval", "--checkpoint", str(ws["final"]), *ppi, "--out", str(out)],
        "eval-contact-scores": ["eval", "--checkpoint", str(ws["final"]), "--task", "contact",
                                "--maps-dir", str(maps), "--scores-dir", str(maps),
                                "--fasta", str(fasta), "--out", str(out)],
    }[command]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"data error: {fasta}: empty corpus\n", captured.err
    assert not captured.out and not out.exists()


def _exit_code(argv) -> int:
    """main's return value, or the code of the SystemExit argparse raises."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


# each input that once reached a check below the readers, fed to the command
# it would reach, with the gate that now refuses it first: (argv, exit code,
# stderr text). The label range, empty rows, a one-row regression file and a
# self-loop table have their own tests above.
def _gate_case(ws, root, case):
    inputs = root / "in"
    inputs.mkdir()

    def write(name, text):
        (inputs / name).write_text(text)
        return str(inputs / name)

    out = root / "out"
    ckpt_ = ["eval", "--checkpoint", str(ws["final"])]
    ppi = [*ckpt_, "--task", "ppi", "--fasta", str(ws["fasta"]), "--out", str(out)]
    maps = inputs / "maps"
    maps.mkdir()
    tag = "guess" if case == "contact-map-tag" else "native"
    write("maps/x_A.cmap", f"n=3 threshold=8.0 tag={tag}\n000\n000\n000\n")
    contact = [*ckpt_, "--task", "contact", "--maps-dir", str(maps), "--out", str(out)]
    return {
        # micro_f1's 0/1 check
        "ppi-label-2": ([*ppi, "--data", write("two.tsv", "p00\tp03\t2\n")], 1,
                        "labels must be 0 or 1"),
        # pair_head's width check
        "ppi-4-columns": ([*ppi, "--data", write("four.tsv", "p00\tp03\t1\t0\n")], 1,
                          "expected 3 or 9 tab-separated columns, got 4"),
        # q_accuracy's and token_logits' classes checks
        "ss-classes": ([*ckpt_, "--task", "ss", "--data", write("ss.tsv", "s1\tACD\t012\n"),
                        "--classes", "4", "--out", str(out)], 2, "invalid choice"),
        # q_accuracy's empty-input check
        "ss-no-rows": ([*ckpt_, "--task", "ss", "--data", write("none.tsv", "# none\n"),
                        "--out", str(out)], 1, "no data rows"),
        # pool's residue check
        "ppi-empty-record": ([*ckpt_, "--task", "ppi", "--data", str(ws["pairs"]),
                              "--fasta", write("e.fasta", ">p00\n>p01\nACD\n"),
                              "--out", str(out)], 1, "record 'p00' has an empty sequence"),
        # contact_logits' residue check
        "contact-empty-record": (
            [*contact, "--fasta", write("x.fasta", ">x_A\n>y\nACD\n")], 1,
            "record 'x_A' has an empty sequence"),
        # ContactMap's tag check, on a map read
        "contact-map-tag": (
            [*contact, "--scores-dir", str(maps)], 1, "bad contact map header"),
        # ContactMap's tag check, on a map built
        "build-contacts-tag": (["build-contacts", "--pdb-dir", str(_blob_pdb_dir(inputs)),
                                "--out-dir", str(out), "--tag", "guess"], 2, "invalid choice"),
        # split_graph's mode check
        "split-mode": (["split", "--ppi", str(ws["pairs"]), "--mode", "random", "--fraction",
                        "0.5", "--out-prefix", str(out / "s")], 2, "invalid choice"),
    }[case]


GATE_CASES = ["ppi-label-2", "ppi-4-columns", "ss-classes", "ss-no-rows", "ppi-empty-record",
              "contact-empty-record", "contact-map-tag", "build-contacts-tag", "split-mode"]


@pytest.mark.parametrize("case", GATE_CASES)
def test_each_input_is_refused_where_it_enters(ws, tmp_path, capsys, case):
    argv, code, text = _gate_case(ws, tmp_path, case)
    assert _exit_code(argv) == code
    captured = capsys.readouterr()
    assert text in captured.err and "Traceback" not in captured.err, captured.err
    assert not captured.out and [p.name for p in tmp_path.iterdir()] == ["in"]


# each refusal no other test reaches: (argv, exit code, stderr text), each
# made before any write
def _refusal_case(ws, root, case):
    inputs = root / "in"
    inputs.mkdir()

    def write(name, text):
        (inputs / name).write_text(text)
        return str(inputs / name)

    out = root / "out"
    ckpt_ = ["eval", "--checkpoint", str(ws["final"])]
    pretrain = ["pretrain", "--out-dir", str(out), "--steps", "1", *BASE_SETS]
    maps = inputs / "maps"
    maps.mkdir()
    if case.startswith("contact-"):
        write("maps/x_A.cmap", "n=3 threshold=8.0 tag=native\n000\n000\n000\n")
    contact = [*ckpt_, "--task", "contact", "--maps-dir", str(maps), "--out", str(out)]
    return {
        "ppi-no-data": ([*ckpt_, "--task", "ppi", "--fasta", str(ws["fasta"]),
                         "--out", str(out)], 2, "eval --task ppi needs --data (TSV) and --fasta"),
        "ppi-complete-graph": (
            [*pretrain, "--fasta", str(ws["fasta"]),
             "--ppi", write("k3.tsv", "p00\tp01\t1\np01\tp02\t1\np00\tp02\t1\n")], 1,
            "every pair of the graph's 3 proteins interacts"),
        "pretrain-no-fasta": (pretrain, 2, "pretrain needs a FASTA corpus"),
        "contact-no-maps-dir": ([*ckpt_, "--task", "contact", "--fasta", str(ws["fasta"])], 2,
                                "eval --task contact needs --maps-dir plus --fasta"),
        "no-cmap-files": ([*contact, "--fasta", str(ws["fasta"])], 1, f"{maps}: no .cmap files"),
        "contact-no-sequence": ([*contact, "--fasta", write("y.fasta", ">y_A\nACD\n")], 1,
                                "no sequence with id 'x_A' for map"),
        "contact-size": ([*contact, "--fasta", write("x.fasta", ">x_A\nACDE\n")], 1,
                         "map n=3 but sequence 'x_A' has 4 residues"),
        "ss-no-data": ([*ckpt_, "--task", "ss", "--out", str(out)], 2,
                       "eval --task ss needs --data"),
        "regress-no-data": ([*ckpt_, "--task", "regress", "--out", str(out)], 2,
                            "eval --task regress needs --data"),
        "regress-two-columns": ([*ckpt_, "--task", "regress", "--out", str(out),
                                 "--data", write("two.tsv", "r1\tACD\n")], 1,
                                "expected id, sequence, value columns"),
    }[case]


REFUSAL_CASES = ["ppi-no-data", "ppi-complete-graph", "pretrain-no-fasta",
                 "contact-no-maps-dir", "no-cmap-files", "contact-no-sequence", "contact-size",
                 "ss-no-data", "regress-no-data", "regress-two-columns"]


@pytest.mark.parametrize("case", REFUSAL_CASES)
def test_each_refusal_names_its_cause(ws, tmp_path, capsys, case):
    argv, code, text = _refusal_case(ws, tmp_path, case)
    assert main(argv) == code
    captured = capsys.readouterr()
    assert text in captured.err and "Traceback" not in captured.err, captured.err
    assert not captured.out and [p.name for p in tmp_path.iterdir()] == ["in"]


def test_a_dense_graph_draws_its_negatives_from_the_non_adjacent_pairs(tmp_path, monkeypatch):
    # 100 proteins, every pair interacting but the first: a rejection draw
    # hits it about once in 5000 tries, too rarely to fill a batch of 8, so
    # the rest are drawn from the non-adjacent pairs and the step runs
    names = [f"q{i:03d}" for i in range(100)]
    pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]]
    fasta, dense = tmp_path / "q.fasta", tmp_path / "dense.tsv"
    fasta.write_text("".join(f">{n}\nACDE\n" for n in names))
    dense.write_text("".join(f"{a}\t{b}\t1\n" for a, b in pairs[1:]))
    negatives = []
    ppi_batches = cli._ppi_batches

    def recording(graph, encoded, cfg, width):
        name = {id(seq): n for n, seq in encoded.items()}
        build = ppi_batches(graph, encoded, cfg, width)

        def record(step):
            batch = build(step)
            negatives.extend(tuple(sorted(name[id(batch.proteins[i])] for i in pair))
                             for pair, label in zip(batch.pairs, batch.labels) if label[0] == 0)
            return batch

        return record

    monkeypatch.setattr(cli, "_ppi_batches", recording)
    assert main(["pretrain", "--fasta", str(fasta), "--ppi", str(dense), "--out-dir",
                 str(tmp_path / "out"), "--steps", "1", *BASE_SETS, "--set", "batch_pairs=8"]) == 0
    assert negatives and set(negatives) == {pairs[0]}


def test_eval_scores_dir_rejects_an_unknown_prompt(ws, tmp_path, capsys):
    # precomputed scores encode nothing, so eval checks --prompts itself
    maps = tmp_path / "maps"
    maps.mkdir()
    D.write_contact_map(D.ContactMap(n=8, bits=np.zeros((8, 8), dtype=bool)), maps / "x_A.cmap")
    rc = main(["eval", "--checkpoint", str(ws["final"]), "--task", "contact",
               "--maps-dir", str(maps), "--scores-dir", str(maps), "--prompts", "Nope"])
    assert rc == 2
    assert "config error: unknown prompt 'Nope'" in capsys.readouterr().err


def test_unknown_config_key_exit_2(ws, capsys):
    rc = main(["pretrain", "--fasta", str(ws["fasta"]),
               "--out-dir", "/tmp/x", "--set", "nonsense=1"])
    assert rc == 2
    assert "unknown config key" in capsys.readouterr().err


def test_missing_files_exit_1(ws, tmp_path, capsys):
    rc = main(["pretrain", "--fasta", str(tmp_path / "absent.fasta"),
               "--out-dir", str(tmp_path / "o")])
    assert rc == 1
    rc = main(["eval", "--checkpoint", str(tmp_path / "absent.bin"),
               "--task", "ppi", "--data", str(ws["pairs"]),
               "--fasta", str(ws["fasta"])])
    assert rc == 1
    rc = main(["eval", "--checkpoint", str(ws["final"]), "--task", "ppi",
               "--data", str(tmp_path / "absent.tsv"), "--fasta", str(ws["fasta"])])
    assert rc == 1
    capsys.readouterr()
    rc = main(["build-contacts", "--pdb-dir", str(tmp_path / "absent"),
               "--out-dir", str(tmp_path / "maps")])
    assert rc == 1
    assert str(tmp_path / "absent") in capsys.readouterr().err
    assert not (tmp_path / "maps").exists()


def test_readme_command_lines_parse():
    # every protprompt command line in README's sh blocks, \ continuations
    # joined, parses, so a renamed flag or choice fails here naming the line
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```sh\n(.*?)^```", readme, flags=re.M | re.S)
    lines = "".join(blocks).replace("\\\n", " ").splitlines()
    commands = [shlex.split(line) for line in lines if line.startswith("protprompt ")]
    assert len(commands) >= 4
    parser = cli.build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"README: {shlex.join(argv)} does not parse")
