"""Committed output digests: a tiny run of each training and eval command must
write exactly the recorded bytes.

The runs: a `pretrain` with an interaction file (negatives drawn), lambda and
alpha_ppi away from 1, stopped after a checkpoint and resumed in the same
directory; an `inject` on a file with explicit 0 rows; and `eval --task ppi
--out` on the injected checkpoint. Each output file is hashed with SHA-256,
`metrics.csv` with its `ms` column blanked.

Float results depend on numpy, its BLAS and the CPU, so golden/digests.json
holds one entry per environment fingerprint. On an environment it does not
record the test fails and names the fingerprint. After a change that is
meant to move bits, or on a new environment, regenerate the entry with

    PYTHONPATH=src python tests/test_golden.py

and list each changed digest in CHANGES.md.
"""

import hashlib
import json
import os
import platform
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from protprompt.cli import main

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

SHAPE = ["--set", "d=8", "--set", "layers=1", "--set", "heads=2", "--set", "max_len=16",
         "--set", "batch_seqs=2", "--set", "batch_pairs=2", "--set", "checkpoint_every=2"]


def fingerprint() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"numpy {np.__version__}; {blas['name']} {blas['version']}; {platform.machine()}"


def _masked_log(data: bytes) -> bytes:
    """metrics.csv with the wall-time cell of every step row blanked."""
    lines = data.decode().splitlines(keepends=True)
    return "".join(
        line.rsplit(",", 1)[0] + ",\n" if line.split(",", 1)[0].isdigit() else line
        for line in lines
    ).encode()


def _run(argv: list[str]) -> None:
    if main(argv) != 0:
        raise RuntimeError(f"{' '.join(argv)} failed")


def compute_digests(work: Path) -> dict[str, str]:
    """Run the three commands in work (relative paths, so no temporary
    directory name reaches a stored config) and hash every output file."""
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
        _run([*base, "--steps", "4", "--resume", "pretrain/ckpt_step2.bin"])
        _run(["inject", "--checkpoint", "pretrain/final.bin", "--prompt", "PPI",
              "--task", "ppi", "--data", "labeled.tsv", "--fasta", "seqs.fasta",
              "--out", "inject", "--steps", "3", "--seed", "4"])
        _run(["eval", "--checkpoint", "inject/injected.bin", "--task", "ppi",
              "--data", "labeled.tsv", "--fasta", "seqs.fasta", "--out", "eval.csv"])
        digests = {}
        for path in sorted([*Path("pretrain").iterdir(), *Path("inject").iterdir(),
                            Path("eval.csv")]):
            data = path.read_bytes()
            if path.name == "metrics.csv":
                data = _masked_log(data)
            digests[path.as_posix()] = hashlib.sha256(data).hexdigest()
        return digests
    finally:
        os.chdir(cwd)


def test_outputs_match_the_recorded_digests(tmp_path):
    t0 = time.monotonic()
    got = compute_digests(tmp_path)
    assert time.monotonic() - t0 < 5.0
    recorded = json.loads(GOLDEN.read_text())
    env = fingerprint()
    assert env in recorded, f"no digests recorded for environment {env!r}"
    assert got == recorded[env]


if __name__ == "__main__":
    recorded = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    with tempfile.TemporaryDirectory() as work:
        recorded[fingerprint()] = compute_digests(Path(work))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(recorded[fingerprint()])} digests for {fingerprint()!r} to {GOLDEN}",
          file=sys.stderr)
