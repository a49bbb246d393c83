"""Committed output digests: a tiny run of each training and eval command must
write exactly the recorded bytes.

The runs: a `pretrain` with an interaction file (negatives drawn), lambda and
alpha_ppi away from 1, stopped after a checkpoint and extended by `resume`
in the same directory; an `inject` on a file with explicit 0 rows, and a
shorter one on the same file with `--no-freeze-encoder`; `eval --task ppi --out` on the
injected checkpoint; a `probe` of the injected prompt on that checkpoint,
with a cutoff that flags some residues of each sequence but not all;
`build-contacts` on three small PDB chains (one residue without CB or CA,
so the report holds a skip line) and `eval --task contact --out` on their
maps with the injected checkpoint. Each output file but `timing.csv`, the
steps' wall times, is hashed with SHA-256. What the training
runs computed is also hashed apart from their config text, which a config
key's retirement rewrites: each training checkpoint's entries (names,
shapes and payloads) under `entries/`, and each `metrics.csv`'s step rows
under `rows/`. Beside the files
these are hashed: the `checkpoint.save_model` bytes of two freshly seeded
models (2 layers and no prompts; 3 layers, three prompts, another d and
max_len); the raw bytes of `contact_logits` from a seeded d=64 encoder at
residue counts that end inside, on and across the contact head's row blocks;
and a seeded encoder's output rows, attention maps (rebuilt by the
conftest oracle) and parameter gradients at 0, 1 and 3 prompts, with the
encoder trainable and frozen as `inject` runs it.

Float results depend on numpy, its BLAS and the CPU, so golden/digests.json
holds one entry per environment fingerprint: numpy version, BLAS build and
CPU architecture. On an environment it does not record the test fails
and names the fingerprint. A BLAS product may also round by how many threads
share it, so the digests are computed in a child interpreter started with
OPENBLAS_NUM_THREADS=1, whatever the calling process sets. After a change
that is meant to move bits, or on a new environment, regenerate the entry with

    PYTHONPATH=src python tests/test_golden.py

and list each changed digest in CHANGES.md; the command prints every key it
added, removed or changed.
"""

import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from protprompt import numerics as nm
from protprompt import tokenizer as T
from protprompt.checkpoint import load_checkpoint, save_model
from protprompt.cli import main
from protprompt.config import build_config
from protprompt.model import ModelConfig, ProteinEncoder
from protprompt.numerics import Tape, Tensor

from conftest import attention_maps, mul, sum_all

GOLDEN = Path(__file__).parent / "golden" / "digests.json"

FASTA = """\
>a
MKTAYIAKQRQISF
>b
GSHMLEDPVKAWQ
>c
TTPLVHCERYNIM
>d
ACDEFGHIKLMN
>e
WYVSRQPNMLKI
>f
MVLSEGEWQLVLH
"""
# positives only: pretrain draws its own negatives
POSITIVES = "a\tb\t1\nb\tc\t1\nc\td\t1\nd\te\t1\ne\tf\t1\n"
# explicit 0 rows: sampled as given
LABELED = "a\tc\t1\na\td\t0\nb\te\t1\nb\tf\t0\nc\te\t0\nd\tf\t1\n"

# residues per chain of the PDB files, by file and chain; at most 14, so each
# chain fits the pretrain's max_len of 16 tokens
CHAINS = {"one": {"A": 14, "B": 9}, "two": {"A": 12}}
RESIDUES = "ACDEFGHIKLMNPQRSTVWY"
THREE = ["ALA", "CYS", "ASP", "GLU", "PHE", "GLY", "HIS", "ILE", "LYS", "LEU",
         "MET", "ASN", "PRO", "GLN", "ARG", "SER", "THR", "VAL", "TRP", "TYR"]
LOGIT_LENGTHS = (1, 8, 9, 17, 73, 254)
ENCODER_PROMPTS = ("Seq", "IC", "PPI")

FRESH_SHAPES = {
    "save_model/layers=2": {"d": "8", "layers": "2", "heads": "2", "max_len": "16",
                            "prompts": "", "seed": "6"},
    "save_model/layers=3": {"d": "12", "layers": "3", "heads": "2", "max_len": "20",
                            "prompts": "Seq,IC,PPI", "seed": "7"},
}

SHAPE = ["--set", "d=8", "--set", "layers=1", "--set", "heads=2", "--set", "max_len=16",
         "--set", "batch_seqs=2", "--set", "batch_pairs=2", "--set", "checkpoint_every=2"]


def fingerprint() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"numpy {np.__version__}; {blas['name']} {blas['version']}; {platform.machine()}"


def _step_rows(data: bytes) -> bytes:
    """metrics.csv's step rows, without the config header."""
    return b"".join(line for line in data.splitlines(keepends=True)
                    if line.split(b",", 1)[0].isdigit())


def _entries_digest(path: Path) -> str:
    """SHA-256 of a checkpoint's entries (names, shapes and payloads),
    without its config text."""
    _, entries = load_checkpoint(path)
    return _sha(b"".join(name.encode() + repr(arr.shape).encode() + arr.tobytes()
                         for name, arr in entries.items()))


def _run(argv: list[str]) -> None:
    if main(argv) != 0:
        raise RuntimeError(f"{' '.join(argv)} failed")


def _write_structures(rng) -> str:
    """PDB files for CHAINS, each chain a seeded random walk of CB atoms (CA
    for glycine); returns the FASTA text of the chains, one record per map stem."""
    Path("pdbs").mkdir()
    records = []
    for stem, chains in CHAINS.items():
        lines = []
        for chain, n in chains.items():
            xyz = np.cumsum(rng.normal(scale=1.7, size=(n, 3)), axis=0)
            kinds = rng.integers(0, len(THREE), size=n)
            for i in range(n):
                atom = "CA" if THREE[kinds[i]] == "GLY" else "CB"
                x, y, z = xyz[i]
                lines.append(f"ATOM  {len(lines) + 1:>5} {atom:<4} {THREE[kinds[i]]:<3} "
                             f"{chain}{i + 1:>4}    {x:8.3f}{y:8.3f}{z:8.3f}  1.00  0.00\n")
            records.append(f">{stem}_{chain}\n{''.join(RESIDUES[k] for k in kinds)}\n")
        if stem == "two":  # no CB or CA: skipped and reported
            lines.append(f"ATOM  {len(lines) + 1:>5} N    SER B   1       0.000   0.000"
                         "   0.000  1.00  0.00\n")
        Path("pdbs", f"{stem}.pdb").write_text("".join(lines))
    return "".join(records)


def _logit_digests() -> dict[str, str]:
    """SHA-256 of contact_logits(...).data of a seeded d=64 encoder for one
    random sequence of each length in LOGIT_LENGTHS."""
    model = ProteinEncoder(ModelConfig(d=64, layers=1, heads=4, max_len=256,
                                       prompt_names=("Seq", "IC")), seed=11)
    rng = np.random.default_rng(12)
    digests = {}
    for n in LOGIT_LENGTHS:
        seq = T.encode("".join(RESIDUES[k] for k in rng.integers(0, 20, size=n)), 256)
        data = model.contact_logits(model.encode(seq, ("Seq", "IC"))).data
        digests[f"contact_logits/n={n}"] = _sha(data.tobytes())
    return digests


def _fresh_model_digests() -> dict[str, str]:
    """SHA-256 of the save_model bytes of a freshly seeded model at each of
    FRESH_SHAPES, written beside the other outputs."""
    digests = {}
    for key, shape in FRESH_SHAPES.items():
        cfg = build_config(overrides=shape)
        path = Path(f"{key.replace('/', '-')}.bin")
        save_model(path, ProteinEncoder(ModelConfig.from_run_config(cfg), seed=cfg.seed), cfg)
        digests[key] = _sha(path.read_bytes())
    return digests


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _encoder_digests() -> dict[str, str]:
    """SHA-256 of a seeded 2-layer encoder's output rows, attention maps
    (conftest.attention_maps) and parameter gradients of sum(h * c), c seeded, for the first m of
    ENCODER_PROMPTS, m in (0, 1, 3). The gradients are taken twice: with every
    parameter trainable, then with the encoder frozen as inject runs it, so
    only the prompts take them. Each gradient is hashed with its name."""
    cfg = ModelConfig(d=16, layers=2, heads=4, max_len=32, prompt_names=ENCODER_PROMPTS)
    seq = T.encode("MKTAYIAKQRQISFVKSH", 32)
    digests = {}
    for mode in ("trainable", "frozen"):
        model = ProteinEncoder(cfg, seed=13)
        params = model.parameters()
        if mode == "frozen":
            for p in model.encoder.values():
                p.requires_grad = False
        for m in (0, 1, 3):
            for p in params.values():
                p.grad = None
            tape = Tape()
            with tape:
                out = model.encode(seq, ENCODER_PROMPTS[:m])
                c = np.random.default_rng(20 + m).normal(size=out.h.shape)
                loss = sum_all(mul(out.h, Tensor(c)))
            if loss.requires_grad:  # not so with a frozen encoder and no prompts
                nm.backward(tape, loss)
            if mode == "trainable":
                digests[f"encode/m={m}"] = _sha(out.h.data.tobytes())
                digests[f"attention/m={m}"] = _sha(b"".join(
                    w.tobytes() for layer in attention_maps(model, seq, ENCODER_PROMPTS[:m])
                    for w in layer))
            digests[f"grads/{mode}/m={m}"] = _sha(b"".join(
                name.encode() + p.grad.tobytes()
                for name, p in params.items() if p.grad is not None))
    return digests


def compute_digests(work: Path) -> dict[str, str]:
    """Run the commands in work (relative paths, so no temporary directory
    name reaches a stored config or report) and hash every output file."""
    cwd = os.getcwd()
    os.chdir(work)
    try:
        Path("seqs.fasta").write_text(FASTA)
        Path("positives.tsv").write_text(POSITIVES)
        Path("labeled.tsv").write_text(LABELED)
        weights = ["--set", "lambda=0.7", "--set", "alpha_ppi=1.3"]
        base = ["pretrain", "--fasta", "seqs.fasta", "--ppi", "positives.tsv",
                "--out-dir", "pretrain", "--seed", "3", *SHAPE, *weights]
        _run([*base, "--steps", "3"])
        _run(["resume", "pretrain/ckpt_step2.bin", "--steps", "4"])
        _run(["inject", "--checkpoint", "pretrain/final.bin", "--prompt", "PPI",
              "--task", "ppi", "--data", "labeled.tsv", "--fasta", "seqs.fasta",
              "--out", "inject", "--steps", "3", "--seed", "4"])
        _run(["inject", "--checkpoint", "pretrain/final.bin", "--prompt", "PPI",
              "--task", "ppi", "--data", "labeled.tsv", "--fasta", "seqs.fasta",
              "--out", "inject-unfrozen", "--steps", "2", "--seed", "4",
              "--no-freeze-encoder"])
        _run(["eval", "--checkpoint", "inject/injected.bin", "--task", "ppi",
              "--data", "labeled.tsv", "--fasta", "seqs.fasta", "--out", "eval.csv"])
        _run(["probe", "--checkpoint", "inject/injected.bin", "--prompt", "PPI",
              "--fasta", "seqs.fasta", "--out-dir", "probe", "--cutoff", "0.0003"])
        Path("chains.fasta").write_text(_write_structures(np.random.default_rng(5)))
        _run(["build-contacts", "--pdb-dir", "pdbs", "--out-dir", "contacts"])
        _run(["eval", "--checkpoint", "inject/injected.bin", "--task", "contact",
              "--maps-dir", "contacts", "--fasta", "chains.fasta", "--out", "contact.csv"])
        digests = {**_fresh_model_digests(), **_logit_digests(), **_encoder_digests()}
        for path in sorted([*Path("pretrain").iterdir(), *Path("inject").iterdir(),
                            *Path("inject-unfrozen").iterdir(), *Path("probe").iterdir(),
                            *Path("contacts").iterdir(), Path("eval.csv"),
                            Path("contact.csv")]):
            data = path.read_bytes()
            if path.name == "timing.csv":
                continue
            if path.name == "metrics.csv":
                digests[f"rows/{path.as_posix()}"] = _sha(_step_rows(data))
            elif path.suffix == ".bin":
                digests[f"entries/{path.as_posix()}"] = _entries_digest(path)
            digests[path.as_posix()] = _sha(data)
        return digests
    finally:
        os.chdir(cwd)


def pinned_digests(work: Path) -> dict[str, str]:
    """compute_digests(work) in a child interpreter with one BLAS thread."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, __file__, "--child", str(work)],
                          capture_output=True, text=True, env=env, timeout=120)
    if proc.returncode:
        raise RuntimeError(proc.stdout + proc.stderr)
    return json.loads((work / "digests.json").read_text())


def digest_changes(old: dict[str, str], new: dict[str, str]) -> list[str]:
    """One "added KEY", "removed KEY" or "changed KEY" line per key on which
    old and new differ, in key order."""
    return [f"{'added' if key not in old else 'removed' if key not in new else 'changed'} {key}"
            for key in sorted(old.keys() | new.keys()) if old.get(key) != new.get(key)]


def test_outputs_match_the_recorded_digests(tmp_path):
    t0 = time.monotonic()
    got = pinned_digests(tmp_path)
    assert time.monotonic() - t0 < 5.0
    recorded = json.loads(GOLDEN.read_text())
    env = fingerprint()
    assert env in recorded, f"no digests recorded for environment {env!r}"
    changes = digest_changes(recorded[env], got)
    assert not changes, "digests differ from the recorded entry:\n" + "\n".join(changes)


def test_digest_changes_name_each_differing_key():
    old = {"a": "1", "b": "2", "c": "3"}
    assert digest_changes(old, {"a": "1", "b": "9", "d": "4"}) == [
        "changed b", "removed c", "added d"]
    assert digest_changes(old, dict(old)) == []


if __name__ == "__main__" and sys.argv[1:2] == ["--child"]:
    # pinned_digests's child: the digests go to a file, since the commands print
    child_work = Path(sys.argv[2])
    (child_work / "digests.json").write_text(json.dumps(compute_digests(child_work)))
elif __name__ == "__main__":
    recorded = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    env = fingerprint()
    with tempfile.TemporaryDirectory() as work:
        digests = pinned_digests(Path(work))
    for line in digest_changes(recorded.get(env, {}), digests):
        print(line)
    recorded[env] = digests
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests for {env!r} to {GOLDEN}", file=sys.stderr)
