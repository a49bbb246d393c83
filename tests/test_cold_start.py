"""The runtime needs numpy only: every command runs where scipy cannot load.

Each check runs in a fresh interpreter, because the test process may have
imported scipy already (conftest uses it as an oracle). This file itself
imports neither scipy nor conftest, so it also runs with
`pytest --noconftest` where only numpy and pytest are installed.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from protprompt.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"
TINY = ["--set", "d=16", "--set", "layers=1", "--set", "heads=2", "--set", "max_len=24",
        "--set", "batch_seqs=2", "--set", "batch_pairs=2"]


def _env() -> dict:
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)}


def _run(script: str, tmp_path) -> None:
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(script), str(tmp_path)],
                          capture_output=True, text=True, env=_env(), timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_commands_without_an_encoder_never_import_scipy(tmp_path):
    _run("""
        import importlib, pkgutil, sys
        from pathlib import Path

        import protprompt
        from protprompt.cli import main

        for info in pkgutil.iter_modules(protprompt.__path__):
            if info.name != "__main__":
                importlib.import_module(f"protprompt.{info.name}")
        assert "scipy" not in sys.modules, "import"

        root = Path(sys.argv[1])
        pdbs = root / "pdbs"
        pdbs.mkdir()
        (pdbs / "tiny.pdb").write_text("".join(
            f"ATOM  {i:>5} CB   ALA A{i:>4}    {i * 3.0:8.3f}   0.000   0.000  1.00  0.00\\n"
            for i in range(1, 5)))
        assert main(["build-contacts", "--pdb-dir", str(pdbs),
                     "--out-dir", str(root / "maps")]) == 0
        assert (root / "maps" / "tiny_A.cmap").exists()
        assert "scipy" not in sys.modules, "build-contacts"

        tsv = root / "g.tsv"
        tsv.write_text("a\\tb\\t1\\na\\tc\\t1\\nc\\td\\t1\\n")
        assert main(["split", "--ppi", str(tsv), "--mode", "bfs", "--fraction", "0.5",
                     "--out-prefix", str(root / "s")]) == 0
        assert "scipy" not in sys.modules, "split"

        try:
            main(["--help"])
        except SystemExit:
            pass
        assert "scipy" not in sys.modules, "--help"
    """, tmp_path)


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """A corpus, an interaction file, one PDB chain with its sequence, a tiny
    pretrained base and a PPI prompt injected into it."""
    root = tmp_path_factory.mktemp("cold")
    rng = np.random.default_rng(3)
    names = [f"p{i}" for i in range(6)]
    (root / "corpus.fasta").write_text("".join(
        f">{name}\n{''.join(rng.choice(list('ACDEFGHIKLMNPQRSTVWY'), 12))}\n"
        for name in names))
    (root / "pairs.tsv").write_text("".join(
        f"{names[i]}\t{names[(i + 2) % 6]}\t{i % 2}\n" for i in range(6)))
    (root / "pdbs").mkdir()
    (root / "pdbs" / "tiny.pdb").write_text("".join(
        f"ATOM  {i:>5} CB   ALA A{i:>4}    {i * 3.0:8.3f}   0.000   0.000  1.00  0.00\n"
        for i in range(1, 11)))
    (root / "chains.fasta").write_text(">tiny_A\nACDEFGHIKL\n")
    assert main(["build-contacts", "--pdb-dir", str(root / "pdbs"),
                 "--out-dir", str(root / "maps")]) == 0
    data = ["--fasta", str(root / "corpus.fasta")]
    assert main(["pretrain", *data, "--out-dir", str(root / "base"), "--steps", "2",
                 *TINY]) == 0
    assert main(["inject", "--checkpoint", str(root / "base" / "final.bin"), "--prompt", "PPI",
                 "--task", "ppi", "--data", str(root / "pairs.tsv"), *data,
                 "--out", str(root / "inj"), "--steps", "2"]) == 0
    return root


def _argv(root: Path, command: str, out: Path) -> list[str]:
    fasta, pairs = str(root / "corpus.fasta"), str(root / "pairs.tsv")
    injected = str(root / "inj" / "injected.bin")
    return {
        "pretrain --ppi": ["pretrain", "--fasta", fasta, "--ppi", pairs, "--out-dir", str(out),
                           "--steps", "2", *TINY],
        "inject": ["inject", "--checkpoint", str(root / "base" / "final.bin"), "--prompt", "PPI",
                   "--task", "ppi", "--data", pairs, "--fasta", fasta, "--out", str(out),
                   "--steps", "2"],
        "eval --task ppi": ["eval", "--checkpoint", injected, "--task", "ppi", "--data", pairs,
                            "--fasta", fasta],
        "eval --task contact": ["eval", "--checkpoint", injected, "--task", "contact",
                                "--maps-dir", str(root / "maps"),
                                "--fasta", str(root / "chains.fasta")],
        "probe": ["probe", "--checkpoint", injected, "--fasta", fasta, "--prompt", "PPI",
                  "--out-dir", str(out)],
        "build-contacts": ["build-contacts", "--pdb-dir", str(root / "pdbs"),
                           "--out-dir", str(out)],
        "split": ["split", "--ppi", pairs, "--mode", "bfs", "--fraction", "0.5",
                  "--out-prefix", str(out / "s")],
        "--help": ["--help"],
    }[command]


@pytest.mark.parametrize("command", ["pretrain --ppi", "inject", "eval --task ppi",
                                     "eval --task contact", "probe", "build-contacts",
                                     "split", "--help"])
def test_command_runs_where_scipy_cannot_load(ws, tmp_path, command):
    # a None entry in sys.modules makes every `import scipy...` raise
    out = tmp_path / "out"
    if command == "split":
        out.mkdir()
    script = ("import sys; sys.modules['scipy'] = None\n"
              "from protprompt.cli import main\n"
              "sys.exit(main(sys.argv[1:]))")
    proc = subprocess.run([sys.executable, "-c", script, *_argv(ws, command, out)],
                          capture_output=True, text=True, env=_env(), timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
