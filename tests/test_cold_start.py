"""scipy loads at the first GELU, not at import.

Each check runs in a fresh interpreter, because the test process itself has
long since imported scipy (conftest uses it as an oracle).
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _run(script: str, tmp_path) -> None:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(script), str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=120)
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


def test_first_encode_binds_scipy_erf(tmp_path):
    # GELU must stay bitwise x * (0.5 * (1 + erf(x / sqrt 2))), evaluated in
    # that order, once the lazily bound erf is in place
    _run("""
        import math, sys
        import numpy as np
        from protprompt import numerics as nm
        from protprompt import tokenizer as T
        from protprompt.model import ModelConfig, ProteinEncoder

        model = ProteinEncoder(ModelConfig(d=8, layers=1, heads=2, max_len=12), seed=3)
        assert "scipy" not in sys.modules
        model.encode(T.encode("ACDEF", 12))
        assert "scipy.special" in sys.modules

        from scipy.special import erf
        assert nm._erf() is erf
        x = np.random.default_rng(5).normal(0.3, 3.0, (9, 16))
        x[0, :4] = [0.0, -0.0, 40.0, -40.0]
        want = x * (0.5 * (1.0 + erf(x / math.sqrt(2.0))))
        got, _ = nm._gelu_forward(x)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
    """, tmp_path)
