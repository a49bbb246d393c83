"""End-to-end command-line workflows on a tiny corpus."""

import os
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


def test_pretrain_checkpoint_pruning(ws, tmp_path):
    fasta, pairs = ws["fasta"], ws["pairs"]
    out = tmp_path / "many"
    rc = main([
        "pretrain", "--fasta", str(fasta), "--out-dir", str(out),
        "--steps", "8", "--seed", "7", *BASE_SETS, "--set", "keep_last=2",
    ])
    assert rc == 0
    kept = sorted(p.name for p in out.glob("ckpt_step*.bin"))
    assert kept == ["ckpt_step6.bin", "ckpt_step8.bin"]


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


def _metric_rows(out_dir):
    lines = (out_dir / "metrics.csv").read_text().splitlines()
    start = lines.index("step,l_conserve,l_ppi,total,ms") + 1
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


def _contacts(target):
    def case(ws, root, variant):
        argv = ["build-contacts", "--pdb-dir", str(_blob_pdb_dir(root)),
                "--out-dir", str(root / "maps"), "--threshold", ("8.0", "9.5")[variant]]
        return argv, root / "maps" / target
    return case


def _split_tsv(ws, root, variant):
    argv = ["split", "--ppi", str(ws["pairs"]), "--mode", "bfs", "--fraction", "0.3",
            "--seed", str(variant), "--out-prefix", str(root / "sp")]
    return argv, root / "sp_train.tsv"


def _vocab(ws, root, variant):
    argv = ["pretrain", "--fasta", str(ws["fasta"]), "--out-dir", str(root / "run"),
            "--steps", "1", "--seed", str(variant), *BASE_SETS]
    return argv, root / "run" / "vocab.txt"


@pytest.mark.parametrize("case", [_eval_out, _probe_csv, _contacts("blob_A.cmap"),
                                  _contacts("report.txt"), _split_tsv, _vocab],
                         ids=["eval-out", "probe-csv", "contact-map", "contacts-report",
                              "split-tsv", "vocab"])
def test_interrupted_output_write_keeps_the_previous_file(ws, tmp_path, monkeypatch, case):
    argv, target = case(ws, tmp_path, 0)
    assert main(argv) == 0
    before = target.read_bytes()

    def open_failing_target(path, mode="r", *args, **kwargs):
        fh = open(path, mode, *args, **kwargs)
        return _FullDisk(fh, room=10) if target.name in str(path) else fh

    monkeypatch.setattr(ckpt, "open", open_failing_target, raising=False)
    argv, target = case(ws, tmp_path, 1)  # the same file, other content
    assert main(argv) == 1
    assert target.read_bytes() == before
    assert not list(target.parent.glob("*.tmp"))


def test_structural_override_on_resume_is_refused(ws, tmp_path, capsys):
    out = tmp_path / "r2"
    rc = main([
        "pretrain", "--fasta", str(ws["fasta"]), "--out-dir", str(out),
        "--steps", "6", "--resume", str(ws["final"]), "--set", "d=32", *BASE_SETS[2:],
    ])
    assert rc == 2
    assert "contradicts checkpoint value" in capsys.readouterr().err


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
    assert new_model.prompts.names() == ("Seq", "IC", "PPI")

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
    models, load_model, adam = [], ckpt.load_model, cli._adam
    monkeypatch.setattr(ckpt, "load_model",
                        lambda path: models.append(load_model(path)) or models[-1])

    def both_pair_heads(trainable, cfg):
        other = {n: p for n, p in models[-1][0].heads.items() if n.startswith("head.pair.")}
        for p in other.values():
            p.requires_grad = True
        return adam({**trainable, **other}, cfg)

    monkeypatch.setattr(cli, "_adam", both_pair_heads)
    old_params, old_opt_heads, old_rows = run(tmp_path / "both")
    assert len(old_opt_heads) == 8
    assert params == old_params and rows == old_rows


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
    # a step records layers + 1 nodes per encode and one loss node per
    # source; the weights seed the backward sweep and record no node
    encodes, steps = [0], []
    encode, backward = ProteinEncoder.encode, nm.backward

    def counting_encode(*args, **kwargs):
        encodes[0] += 1
        return encode(*args, **kwargs)

    def counting_backward(tape, loss):
        steps.append((len(tape.nodes), encodes[0]))
        encodes[0] = 0
        return backward(tape, loss)

    monkeypatch.setattr(ProteinEncoder, "encode", counting_encode)
    monkeypatch.setattr(nm, "backward", counting_backward)
    data = ["--fasta", str(ws["fasta"]), "--steps", "3"]
    if command == "pretrain":
        argv = ["pretrain", *data, "--ppi", str(ws["pairs"]), "--out-dir", str(tmp_path),
                *BASE_SETS, "--set", "layers=2", "--set", "batch_seqs=6"]
        layers, loss_nodes = 2, 2
    else:
        argv = ["inject", *data, "--checkpoint", str(ws["final"]), "--prompt", "PPI",
                "--task", "ppi", "--data", str(ws["pairs"]), "--out", str(tmp_path)]
        layers, loss_nodes = 1, 1
    assert main(argv) == 0
    assert len(steps) == 3
    for nodes, encoded in steps:
        assert encoded > 0 and nodes == (layers + 1) * encoded + loss_nodes


def test_blas_thread_count_leaves_checkpoints_bitwise(tmp_path):
    # the head matmuls stack every sequence's rows; at this shape they and
    # the feed-forward matmuls are large enough for OpenBLAS to split them
    # across threads, and the bits must not depend on how it splits them
    rng = np.random.default_rng(31)
    fasta, pairs = tmp_path / "long.fasta", tmp_path / "long.tsv"
    fasta.write_text("".join(
        f">q{i}\n" + "".join(RESIDUES[int(k)] for k in rng.integers(20, size=50 + i)) + "\n"
        for i in range(12)))
    pairs.write_text("".join(f"q{i}\tq{(i + 1) % 12}\t{i % 2}\n" for i in range(12)))
    script = textwrap.dedent("""
        import sys
        from protprompt.cli import main

        fasta, pairs, out = sys.argv[1:]
        shape = ["--set", "d=64", "--set", "layers=1", "--set", "heads=4",
                 "--set", "max_len=64", "--set", "batch_seqs=12", "--set", "batch_pairs=12",
                 "--set", "mask_rate=0.5"]
        assert main(["pretrain", "--fasta", fasta, "--ppi", pairs, "--out-dir", out,
                     "--steps", "3", "--seed", "3", *shape]) == 0
        assert main(["inject", "--checkpoint", out + "/final.bin", "--prompt", "PPI",
                     "--task", "ppi", "--data", pairs, "--fasta", fasta,
                     "--out", out + "/inj", "--steps", "3"]) == 0
    """)
    src = str(Path(__file__).resolve().parent.parent / "src")
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        proc = subprocess.run(
            [sys.executable, "-c", script, str(fasta), str(pairs), str(out)],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        outputs.append([(out / name).read_bytes() for name in ("final.bin", "inj/injected.bin")])
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("name", ["A,B", "", "Seq"], ids=["comma", "empty", "seq"])
def test_inject_rejects_prompt_names_it_cannot_train(ws, tmp_path, capsys, name):
    # the base holds IC only, so Seq would register, then never learn from ppi
    base = tmp_path / "ic"
    assert main(["pretrain", "--fasta", str(ws["fasta"]), "--out-dir", str(base),
                 "--steps", "1", *BASE_SETS, "--set", "prompts=IC"]) == 0
    capsys.readouterr()
    rc = main(["inject", "--checkpoint", str(base / "final.bin"), "--prompt", name,
               "--task", "ppi", "--data", str(ws["pairs"]), "--fasta", str(ws["fasta"]),
               "--out", str(tmp_path / "inj"), "--steps", "2"])
    assert rc == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "inj").exists()


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
    assert ckpt.load_model(out / "final.bin")[0].prompts.names() == ()


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


def test_eval_ss_rejects_non_digit_labels(ws, tmp_path, capsys):
    ss = tmp_path / "ss.tsv"
    ss.write_text("s1\tACDEF\t01210\ns2\tWYK\t0x1\n")
    rc = main(["eval", "--checkpoint", str(ws["final"]), "--task", "ss", "--data", str(ss)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("data error:") and str(ss) in err and "'s2'" in err, err
    assert "Traceback" not in err


@pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
def test_eval_regress_rejects_non_finite_truths(ws, tmp_path, capsys, value):
    reg = tmp_path / "reg.tsv"
    reg.write_text(f"r1\tACDEF\t0.5\nr2\tWYKRH\t{value}\nr3\tMNPQS\t2.0\n")
    rc = main(["eval", "--checkpoint", str(ws["final"]), "--task", "regress",
               "--data", str(reg)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("data error:") and str(reg) in err and "'r2'" in err, err
    assert "non-finite" in err and "Traceback" not in err


@pytest.mark.parametrize("rows", ["# a comment\n\n", "p00\tp00\t1\np01\tp01\t0\n"],
                         ids=["comments", "self-loops"])
@pytest.mark.parametrize("command", ["eval", "inject", "pretrain"])
def test_interaction_file_without_rows_is_a_data_error(ws, tmp_path, capsys, command, rows):
    tsv, out = tmp_path / "empty.tsv", tmp_path / "out"
    tsv.write_text(rows)
    task = ["--task", "ppi", "--data", str(tsv), "--fasta", str(ws["fasta"]), "--out", str(out)]
    argv = {
        "eval": ["eval", "--checkpoint", str(ws["final"]), *task],
        "inject": ["inject", "--checkpoint", str(ws["final"]), "--prompt", "PPI", *task],
        "pretrain": ["pretrain", "--fasta", str(ws["fasta"]), "--ppi", str(tsv),
                     "--out-dir", str(out), "--steps", "1", *BASE_SETS],
    }[command]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"data error: {tsv}: no interaction rows" in err and "Traceback" not in err, err
    assert list(tmp_path.iterdir()) == [tsv]


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


@pytest.mark.parametrize("case", ["pretrain-seed", "batch-seqs", "split-seed", "beta1"])
def test_bad_seed_batch_size_or_beta_exits_2_before_any_output(ws, tmp_path, capsys, case):
    tsv = tmp_path / "pairs.tsv"
    tsv.write_text("a\tb\t1\nb\tc\t1\nc\td\t1\n")
    pretrain = ["pretrain", "--fasta", str(ws["fasta"]), "--out-dir", str(tmp_path / "out"),
                "--steps", "2", *BASE_SETS]
    argv, key = {
        "pretrain-seed": ([*pretrain, "--seed", "-1"], "seed"),
        "batch-seqs": ([*pretrain, "--set", "batch_seqs=0"], "batch_seqs"),
        "split-seed": (["split", "--ppi", str(tsv), "--mode", "bfs", "--fraction", "0.5",
                        "--seed", "-1", "--out-prefix", str(tmp_path / "out" / "s")], "seed"),
        "beta1": (["eval", "--checkpoint", str(ws["final"]), "--task", "ppi", "--data",
                   str(ws["pairs"]), "--fasta", str(ws["fasta"]), "--set", "beta1=1.0",
                   "--out", str(tmp_path / "eval.csv")], "beta1"),
    }[case]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error:") and key in captured.err, captured.err
    assert "Traceback" not in captured.err and not captured.out
    assert list(tmp_path.iterdir()) == [tsv]


# run by test_sigkilled_pretrain_resumes_to_the_uninterrupted_bytes: a CLI that
# SIGKILLs its own process on the count-th call of objectives.train_step
# ("step") or of Path.replace, the rename that ends every atomic write
# ("rename": vocab.txt first, then each checkpoint, then final.bin)
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
    # mask_mode=additive named the attention the code still runs
    text, entries = ckpt.load_checkpoint(ws["final"])
    retired = ["alpha_contact=0.25", "alpha_regress=3.0", "alpha_ss=0.5", "weight_decay=0.0",
               "mask_mode=additive"]
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


def test_checkpoint_storing_literal_mask_mode_is_refused(ws, tmp_path, capsys):
    # its weights were trained with prompt rows normalised over the input
    # keys, which the one attention path no longer computes
    text, entries = ckpt.load_checkpoint(ws["final"])
    old = tmp_path / "old" / "literal.bin"
    old.parent.mkdir()
    ckpt.save_checkpoint(old, "\n".join(sorted(text.splitlines() + ["mask_mode=literal"]))
                         + "\n", entries)
    data = ["--data", str(ws["pairs"]), "--fasta", str(ws["fasta"])]
    out = tmp_path / "out"
    for argv in (["eval", "--checkpoint", str(old), "--task", "ppi", *data,
                  "--out", str(out / "eval.csv")],
                 ["inject", "--checkpoint", str(old), "--prompt", "PPI", "--task", "ppi",
                  *data, "--out", str(out), "--steps", "1"],
                 ["pretrain", "--resume", str(old), "--fasta", str(ws["fasta"]),
                  "--out-dir", str(out), "--steps", "1"]):
        assert main(argv) == 2, argv[0]
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "mask_mode" in err, err
        assert "Traceback" not in err
        assert not out.exists() and os.listdir(old.parent) == ["literal.bin"], argv[0]


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
    (pdb_dir / "good.pdb").write_text(
        "ATOM      1  CB  ALA A   1       0.000   0.000   0.000  1.00  0.00\n"
        "ATOM      2  CB  SER A   2       3.000   0.000   0.000  1.00  0.00\n"
    )
    maps = tmp_path / "maps"
    rc = main(["build-contacts", "--pdb-dir", str(pdb_dir), "--out-dir", str(maps)])
    assert rc == 1
    assert (maps / "good_A.cmap").exists()
    report = (maps / "report.txt").read_text()
    assert "error:" in report and "bad.pdb" in report
    assert "good_A.cmap: n=2" in report


def test_build_contacts_empty_dir_is_ok(tmp_path):
    pdb_dir = tmp_path / "empty"
    pdb_dir.mkdir()
    rc = main(["build-contacts", "--pdb-dir", str(pdb_dir),
               "--out-dir", str(tmp_path / "maps")])
    assert rc == 0


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
