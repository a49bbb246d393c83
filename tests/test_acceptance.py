"""Acceptance gate: one test per shipping criterion.

Run with -v to get a pass/fail line per criterion. Each test states its
tolerance and time budget inline and is independent of the other suites.
"""

import math
import shutil
import time

import numpy as np
import pytest
import scipy.stats

from conftest import (affine, bce_with_logits_mean, concat_rows, embedding_lookup,
                      finite_diff_check, gelu, layernorm, log_softmax_rows, mean_over_rows,
                      mlm_loss, mul, multihead_attention, pair_batch, pick, ppi_graph,
                      ppi_loss, reference_forward, reshape, scale, select_rows, sum_all)
from protprompt import checkpoint as ckpt
from protprompt import cli
from protprompt import data as D
from protprompt import metrics as MX
from protprompt import numerics as nm
from protprompt import objectives as O
from protprompt import tokenizer as T
from protprompt.cli import main
from protprompt.config import RunConfig
from protprompt.model import ModelConfig, ProteinEncoder
from protprompt.numerics import Tape, Tensor

RESIDUES = "ACDEFGHIKLMNPQRSTVWY"


# ---------------------------------------------------------------------------
# shared toy corpora


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("acc")
    rng = np.random.default_rng(99)
    # two residue-composition clusters so pooled embeddings are separable
    with open(root / "toy.fasta", "w") as fh:
        for i in range(6):
            seq = "".join(
                "K" if rng.random() < 0.8 else RESIDUES[int(rng.integers(20))]
                for _ in range(12)
            )
            fh.write(f">k{i}\n{seq}\n")
        for i in range(6):
            seq = "".join(
                "E" if rng.random() < 0.8 else RESIDUES[int(rng.integers(20))]
                for _ in range(12)
            )
            fh.write(f">e{i}\n{seq}\n")
    pairs = []
    for i in range(6):
        for j in range(i + 1, 6):
            pairs.append((f"k{i}", f"k{j}", 1))  # 15 same-cluster positives
    for i in range(6):
        pairs.append((f"k{i}", f"e{i}", 0))
        pairs.append((f"k{i}", f"e{(i + 1) % 6}", 0))
    for i in range(3):
        pairs.append((f"k{i}", f"e{(i + 2) % 6}", 0))
    assert len(pairs) == 30 and sum(p[2] for p in pairs) == 15
    with open(root / "toy_ppi.tsv", "w") as fh:
        for a, b, y in pairs:
            fh.write(f"{a}\t{b}\t{y}\n")
    rng8 = np.random.default_rng(123)
    with open(root / "mlm8.fasta", "w") as fh:
        for i in range(8):
            n = int(rng8.integers(10, 15))
            seq = "".join(RESIDUES[int(k)] for k in rng8.integers(20, size=n))
            fh.write(f">m{i}\n{seq}\n")
    return root


def _metric_columns(out_dir, tasks=("ppi",)):
    header = ",".join(["step", "l_conserve", *[f"l_{t}" for t in tasks], "total", "ms"])
    lines = (out_dir / "metrics.csv").read_text().splitlines()
    rows = [ln.split(",") for ln in lines[lines.index(header) + 1:]]
    return {
        "l_conserve": [float(r[1]) for r in rows],
        "tasks": {t: [float(r[2 + i]) for r in rows] for i, t in enumerate(tasks)},
    }


# ---------------------------------------------------------------------------
# criterion 1: gradient checks for every primitive and the full encoder


def _contract(t, seed=0):
    c = Tensor(np.random.default_rng(seed).normal(size=t.shape))
    return sum_all(mul(t, c))


def _probe(shape, seed):
    return Tensor(np.random.default_rng(seed).normal(size=shape), requires_grad=True)


def _primitive_cases():
    a = lambda: _probe((3, 4), 1)
    sq = lambda: _probe((4, 4), 3)
    yield "add", a(), lambda x: _contract(nm.add(x, _probe((3, 4), 9)))
    yield "mul", a(), lambda x: _contract(mul(x, _probe((3, 4), 9)))
    yield "scale", a(), lambda x: _contract(scale(x, -1.7))
    yield "reshape", a(), lambda x: _contract(reshape(x, (2, 6)))
    yield "concat_rows", a(), lambda x: _contract(concat_rows([x, _probe((2, 4), 9)]))
    yield "select_rows", a(), lambda x: _contract(select_rows(x, [2, 0, 2]))
    yield "pick", a(), lambda x: _contract(pick(x, [0, 2, 2], [1, 3, 3]))
    yield "sum_all", a(), lambda x: sum_all(x)
    yield "mean_over_rows", a(), lambda x: _contract(mean_over_rows(x))
    yield "log_softmax_rows", sq(), lambda x: _contract(log_softmax_rows(x))
    yield "layernorm", a(), lambda x: _contract(
        layernorm(x, _probe((4,), 9), _probe((4,), 10))
    )
    yield "layernorm_gain", _probe((4,), 9), lambda g: _contract(
        layernorm(_probe((3, 4), 1), g, _probe((4,), 10))
    )
    yield "gelu", a(), lambda x: _contract(gelu(x))
    yield "affine", a(), lambda x: _contract(
        affine(x, _probe((4, 2), 9), _probe((2,), 10))
    )
    yield "affine_w", _probe((4, 2), 9), lambda w: _contract(
        affine(_probe((3, 4), 1), w, _probe((2,), 10))
    )
    yield "embedding_lookup", a(), lambda t: _contract(
        embedding_lookup(t, [1, 1, 0, 2])
    )
    lg = _probe((5, 1), 5)
    lbl = np.random.default_rng(6).integers(0, 2, size=(5, 1)).astype(np.float64)
    yield "bce_with_logits_mean", lg, lambda x: bce_with_logits_mean(x, lbl)


def _attention_cases():
    # one prompt + 4 inputs, d=4; every head count splits the width
    for heads in (1, 2, 4):
        qkv = [_probe((5, 4), 40 + i) for i in range(3)]

        def loss(qkv=qkv, heads=heads):
            return _contract(multihead_attention(*qkv, heads, 1))

        for name, p in zip("qkv", qkv):
            yield f"attention_h{heads}_{name}", p, loss


def _contact_cases():
    # the scored rows 1..n sit between two unscored ones, as residues sit
    # between CLS and EOS. Every column of them holds distinct multiples of
    # 0.3 (plus a shift), so no two come within 4 * eps of each other and
    # |h_i - h_j| stays off its kink
    rng = np.random.default_rng(50)
    n, d = 5, 4
    rank = np.argsort(rng.random((n, d)), axis=0)
    h = Tensor(np.vstack([rng.normal(size=(1, d)), (rank + rng.uniform(0.0, 0.5, (1, d))) * 0.3,
                          rng.normal(size=(1, d))]))
    rows = np.arange(1, n + 1)
    gaps = np.abs(h.data[rows, None, :] - h.data[None, rows, :])[~np.eye(n, dtype=bool)]
    assert gaps.min() > 4 * 1e-3
    args = [h, _probe((d, 1), 51), _probe((d, 1), 52), _probe((1,), 53)]

    def loss():
        return _contract(nm.contact_scores(args[0], rows, *args[1:]))

    for name, p in zip(("h", "w_prod", "w_diff", "b"), args):
        yield f"contact_scores_{name}", p, loss


def _tape_grad(f, p):
    p.requires_grad = True
    tape = Tape()
    with tape:
        y = f()
    p.grad = None
    nm.backward(tape, y)
    return p.grad.copy() if p.grad is not None else np.zeros_like(p.data)


def _richardson_fd(f, p, eps=1e-3):
    # two central differences combined to cancel the O(eps^2) term; the
    # larger eps keeps the numerator above float64 rounding noise
    flat = p.data.reshape(-1)
    fd = np.zeros(flat.size)
    for i in range(flat.size):
        orig = flat[i]

        def at(t):
            flat[i] = orig + t
            v = float(f().data)
            flat[i] = orig
            return v

        d1 = (at(eps) - at(-eps)) / (2 * eps)
        d2 = (at(2 * eps) - at(-2 * eps)) / (4 * eps)
        fd[i] = (4 * d1 - d2) / 3
    return fd.reshape(p.data.shape)


def _rel_err(g, fd):
    denom = np.maximum(np.maximum(np.abs(g), np.abs(fd)), 1e-8)
    return float((np.abs(fd - g) / denom).max())


def test_1_gradient_suite_primitives_and_full_encoder():
    t0 = time.monotonic()
    for name, x, f in _primitive_cases():
        err = finite_diff_check(f, x)
        assert err < 1e-4, f"{name}: rel err {err:.3e}"
    for name, p, f in (*_attention_cases(), *_contact_cases()):
        err = _rel_err(_tape_grad(f, p), _richardson_fd(f, p))
        assert err < 1e-4, f"{name}: rel err {err:.3e}"

    # full 2-layer prompt-masked encoder, then with the encoder frozen as
    # inject runs it, where only the prompts take gradients; parameters are
    # re-drawn at a larger scale so every gradient is well measurable
    for frozen_encoder in (False, True):
        cfg = ModelConfig(d=8, layers=2, heads=2, max_len=10, prompt_names=("Seq", "IC"))
        model = ProteinEncoder(cfg, seed=9)
        rng = np.random.default_rng(31)
        for _, p in model.parameters().items():
            p.data[:] = rng.normal(0.0, 0.2, p.data.shape)
        seq = T.encode("ACDWK", 10, "g")
        c = Tensor(rng.normal(size=(2 + 7, 8)))  # 2 prompts + CLS, 5 residues, EOS

        def loss():
            return sum_all(mul(model.encode(seq, ("Seq", "IC")).h, c))

        checked = model.parameters()
        if frozen_encoder:
            for p in model.encoder.values():
                p.requires_grad = False
            checked = {f"prompt.{n}": model.prompts[n] for n in ("Seq", "IC")}
        for name, p in checked.items():
            g = _tape_grad(loss, p)
            if name.endswith("attn.bk"):
                # a key bias shifts every score in a row equally, which the
                # row softmax cancels, so its true gradient is exactly zero
                assert np.abs(g).max() < 1e-12, (frozen_encoder, name)
                continue
            err = _rel_err(g, _richardson_fd(loss, p))
            assert err < 1e-4, f"frozen_encoder={frozen_encoder} {name}: rel err {err:.3e}"
        if frozen_encoder:
            assert all(p.grad is None for p in model.encoder.values())
    assert time.monotonic() - t0 < 60.0


# ---------------------------------------------------------------------------
# criterion 2: mask semantics


def test_2_mask_semantics_suite():
    t0 = time.monotonic()
    cfg = ModelConfig(d=16, layers=2, heads=4, max_len=12, prompt_names=("Seq", "IC"))
    model = ProteinEncoder(cfg, seed=7)
    seq = T.encode("ACDEFGH", 12)

    def scalar_of(t, seed=123):
        return sum_all(mul(t, Tensor(np.random.default_rng(seed).normal(size=t.shape))))

    # one-way flow: prompt-row outputs carry zero gradient to any input
    tape = Tape()
    with tape:
        loss = scalar_of(select_rows(model.encode(seq, ("Seq", "IC")).h, [0, 1]))
    for p in model.parameters().values():
        p.grad = None
    nm.backward(tape, loss)
    for name in ("embed.tok", "embed.pos", "embed.seg"):
        g = model.parameters()[name].grad
        assert g is None or np.all(g == 0.0), name
    for li in range(cfg.layers):
        g = model.parameters()[f"layer{li}.attn.wv"].grad
        assert g is not None and np.any(g != 0.0)

    # prompt isolation: one prompt's output row ignores the other prompt
    tape = Tape()
    with tape:
        out = model.encode(seq, ("Seq", "IC"))
        loss = scalar_of(select_rows(out.h, [0]))  # the Seq row
    for p in model.parameters().values():
        p.grad = None
    nm.backward(tape, loss)
    ic = model.prompts["IC"].grad
    assert ic is None or np.all(ic == 0.0)
    assert np.any(model.prompts["Seq"].grad != 0.0)

    # m=0 reduces bitwise to an independently coded plain encoder
    for s in ("ACDEFG", "WYW", "KK"):
        sq = T.encode(s, 12)
        assert np.array_equal(model.encode(sq, ()).h.data,
                              reference_forward(model, sq.ids))

    # prompt permutation leaves input rows unchanged within 1e-12
    fwd = model.encode(seq, ("Seq", "IC")).h.data[2:]
    rev = model.encode(seq, ("IC", "Seq")).h.data[2:]
    assert np.abs(fwd - rev).max() <= 1e-12
    assert time.monotonic() - t0 < 30.0


# ---------------------------------------------------------------------------
# criterion 3: objective fidelity


def _objective_fixture(seed):
    cfg = ModelConfig(d=16, layers=1, heads=2, max_len=10, prompt_names=("Seq", "IC"))
    model = ProteinEncoder(cfg, seed=seed)
    seqs = [T.encode(s, 10, f"s{i}") for i, s in enumerate(("ACDEF", "WYKRH", "MNPQS"))]
    mlm = [T.apply_mlm_mask(s, 0.3, (5, i)) for i, s in enumerate(seqs)]
    ppi = pair_batch("ppi", [(seqs[0], seqs[1]), (seqs[1], seqs[2])], [[1.0], [0.0]])
    return model, mlm, ppi


def test_3_objective_fidelity():
    # closed forms within 1e-9
    logits = Tensor(np.zeros((4, 25)))
    assert abs(mlm_loss(logits, [1, 2, 3, 4], reduction="mean").data.item()
               - math.log(25)) < 1e-9
    assert abs(mlm_loss(logits, [1, 2, 3, 4]).data.item() - 4 * math.log(25)) < 1e-9
    zero = Tensor(np.zeros((2, 1)))
    assert abs(ppi_loss(zero, np.array([[1.0], [0.0]])).data.item() - math.log(2)) < 1e-9
    z = Tensor(np.array([[2.0]]))
    assert abs(ppi_loss(z, np.array([[1.0]])).data.item()
               - math.log(1 + math.exp(-2.0))) < 1e-9

    # the logged decomposition is bit-reproducible and recombines exactly
    cfg = RunConfig(lambda_weight=0.7, alpha_ppi=1.3)
    reports, rows = [], []
    for _ in range(2):
        model, mlm, ppi = _objective_fixture(seed=11)
        opt = O.Adam(model.parameters(), lr=1e-4)
        l_conserve, task_losses = O.train_step(model, opt, mlm, [ppi], True, 0.7, {"ppi": 1.3})
        reports.append((l_conserve, task_losses))
        rows.append(cli._log_row(0, l_conserve, task_losses, cfg, 0.0))
    assert reports[0] == reports[1] and rows[0] == rows[1]
    total = float(rows[0].split(",")[3])
    assert total == reports[0][0] + reports[0][1]["ppi"] * 1.3 * 0.7

    # routing: the conservation loss never touches IC, the task loss
    # never touches Seq
    model, mlm, ppi = _objective_fixture(seed=12)
    before = {n: p.data.copy() for n, p in model.parameters().items()}
    opt = O.Adam(model.parameters(), lr=1e-3)
    O.train_step(model, opt, mlm, [], True, 1.0, {"ppi": 1.0})
    assert np.array_equal(model.prompts["IC"].data, before["prompt.IC"])
    assert not np.array_equal(model.prompts["Seq"].data, before["prompt.Seq"])

    model, mlm, ppi = _objective_fixture(seed=13)
    before = {n: p.data.copy() for n, p in model.parameters().items()}
    opt = O.Adam(model.parameters(), lr=1e-3)
    O.train_step(model, opt, None, [ppi], True, 1.0, {"ppi": 1.0})
    assert np.array_equal(model.prompts["Seq"].data, before["prompt.Seq"])
    assert not np.array_equal(model.prompts["IC"].data, before["prompt.IC"])


# ---------------------------------------------------------------------------
# criterion 4: pluggability


def test_4_pluggable_prompt_injection(corpus, tmp_path):
    t0 = time.monotonic()
    base = tmp_path / "base"
    rc = main([
        "pretrain", "--fasta", str(corpus / "toy.fasta"), "--out-dir", str(base),
        "--steps", "2", "--seed", "3", "--set", "d=16", "--set", "layers=1",
        "--set", "heads=2", "--set", "max_len=16", "--set", "batch_seqs=4",
    ])
    assert rc == 0

    def accuracy(checkpoint):
        rec = tmp_path / "rec.csv"
        rc = main([
            "eval", "--checkpoint", str(checkpoint), "--task", "ppi",
            "--data", str(corpus / "toy_ppi.tsv"),
            "--fasta", str(corpus / "toy.fasta"), "--out", str(rec),
        ])
        assert rc == 0
        rows = dict()
        for ln in rec.read_text().splitlines()[2:]:
            _, metric, value, _ = ln.split(",")
            rows[metric] = float(value)
        return rows["accuracy"]

    base_acc = accuracy(base / "final.bin")
    assert base_acc <= 0.7  # untrained head sits near chance

    inj = tmp_path / "inj"
    rc = main([
        "inject", "--checkpoint", str(base / "final.bin"), "--prompt", "PPI",
        "--task", "ppi", "--data", str(corpus / "toy_ppi.tsv"),
        "--fasta", str(corpus / "toy.fasta"), "--out", str(inj),
        "--steps", "600", "--lr", "0.02", "--set", "batch_pairs=8",
    ])
    assert rc == 0
    plugged_acc = accuracy(inj / "injected.bin")
    assert plugged_acc > 0.9, f"toy PPI accuracy {plugged_acc}"

    # the encoder is bitwise frozen; only the pair head and the new
    # prompt may differ from the base checkpoint
    base_model, base_cfg, _ = ckpt.load_model(base / "final.bin")
    new_model, _, _ = ckpt.load_model(inj / "injected.bin")
    new_params = new_model.parameters()
    for name, p in base_model.parameters().items():
        if name.startswith("head.pair"):
            continue
        assert np.array_equal(new_params[name].data, p.data), name

    # unplugged inference is bitwise identical to the base model
    for raw in ("KKEKAC", "EEKEME"):
        seq = T.encode(raw, base_cfg.max_len, "q")
        for sel in ((), ("Seq", "IC")):
            assert np.array_equal(base_model.encode(seq, sel).h.data,
                                  new_model.encode(seq, sel).h.data)
    assert time.monotonic() - t0 < 300.0


# ---------------------------------------------------------------------------
# criterion 5: convergence


def test_5_convergence(corpus, tmp_path):
    # 8-sequence MLM overfit: per-token loss below 0.1 within 2000 steps
    out = tmp_path / "mlm"
    rc = main([
        "pretrain", "--fasta", str(corpus / "mlm8.fasta"), "--out-dir", str(out),
        "--steps", "2000", "--seed", "5", "--set", "d=32", "--set", "layers=2",
        "--set", "heads=4", "--set", "max_len=16", "--set", "batch_seqs=8",
        "--set", "lr=3e-3", "--set", "mlm_reduction=mean",
        "--set", "checkpoint_every=2000",
    ])
    assert rc == 0
    conserve = _metric_columns(out, tasks=())["l_conserve"]
    assert min(conserve) < 0.1, f"best MLM loss {min(conserve):.4f}"

    # joint run: both objectives drop by at least half from step 0
    joint = tmp_path / "joint"
    rc = main([
        "pretrain", "--fasta", str(corpus / "toy.fasta"),
        "--ppi", str(corpus / "toy_ppi.tsv"), "--out-dir", str(joint),
        "--steps", "300", "--seed", "5", "--set", "d=32", "--set", "layers=2",
        "--set", "heads=4", "--set", "max_len=16", "--set", "batch_seqs=8",
        "--set", "batch_pairs=8", "--set", "lr=3e-3",
        "--set", "mlm_reduction=mean", "--set", "checkpoint_every=1000",
    ])
    assert rc == 0
    cols = _metric_columns(joint)
    lc, li = cols["l_conserve"], cols["tasks"]["ppi"]
    assert lc[-1] <= 0.5 * lc[0], f"L_C {lc[0]:.3f} -> {lc[-1]:.3f}"
    assert li[-1] <= 0.5 * li[0], f"L_I {li[0]:.4f} -> {li[-1]:.4f}"


# ---------------------------------------------------------------------------
# criterion 6: contact pipeline


def test_6_contact_pipeline(tmp_path):
    # exact match with a brute-force distance oracle, 100 instances
    for trial in range(100):
        rng = np.random.default_rng(6000 + trial)
        n = int(rng.integers(2, 201))
        coords = rng.uniform(-30, 30, size=(n, 3))
        thr = float(rng.uniform(4, 14))
        recs = [
            D.ResidueRecord(index=i + 1, xyz=coords[i])
            for i in range(n)
        ]
        cmap = D.build_contact_map(recs, threshold=thr)
        want = np.zeros((n, n), dtype=bool)
        for i in range(n):
            for j in range(n):
                want[i, j] = i != j and math.dist(coords[i], coords[j]) < thr
        assert np.array_equal(cmap.bits, want), trial

    # hand-built PDB fixture: CB wins, glycine falls back to CA, altLoc
    # B is ignored while A is kept
    def atom(serial, name, res, chain, idx, x, y, z, alt=" "):
        return (
            f"ATOM  {serial:>5} {name:<4}{alt}{res:<3} {chain}{idx:>4} "
            f"  {x:8.3f}{y:8.3f}{z:8.3f}  1.00  0.00\n"
        )

    pdb = tmp_path / "f.pdb"
    pdb.write_text(
        atom(1, "CA", "ALA", "A", 1, 1.0, 0.0, 0.0)
        + atom(2, "CB", "ALA", "A", 1, 2.0, 0.0, 0.0)
        + atom(3, "CA", "GLY", "A", 2, 3.0, 1.0, 0.0)
        + atom(4, "CB", "SER", "A", 3, 9.0, 9.0, 9.0, alt="B")
        + atom(5, "CB", "SER", "A", 3, 4.0, 2.0, 0.0, alt="A")
    )
    chains, skipped = D.parse_pdb(pdb)
    assert skipped == []
    recs = chains["A"]
    assert [tuple(r.xyz) for r in recs] == [
        (2.0, 0.0, 0.0),  # CB
        (3.0, 1.0, 0.0),  # CA
        (4.0, 2.0, 0.0),  # CB
    ]

    # contact-map file round trip identity
    rng = np.random.default_rng(61)
    coords = rng.uniform(-10, 10, size=(25, 3))
    source = D.build_contact_map(
        [D.ResidueRecord(index=i + 1, xyz=coords[i])
         for i in range(25)],
        threshold=7.25,
    )
    path = tmp_path / "r.cmap"
    D.write_contact_map(source, path)
    back = D.read_contact_map(path)
    assert back.n == source.n
    assert back.threshold == source.threshold
    assert back.tag == source.tag
    assert np.array_equal(back.bits, source.bits)


# ---------------------------------------------------------------------------
# criterion 7: metric oracles


def test_7_metric_oracles():
    # precision at L/2 vs a plain-python ranking oracle
    classes = list(MX.RANGE_CLASSES.values())
    for trial in range(105):
        rng = np.random.default_rng(7000 + trial)
        n = int(rng.integers(2, 60))
        coords = rng.uniform(-15, 15, size=(n, 3))
        truth = D.build_contact_map(
            [D.ResidueRecord(index=i + 1, xyz=coords[i])
             for i in range(n)]
        )
        scores = rng.normal(size=(n, n))
        if trial % 3 == 0:
            scores = np.round(scores, 1)  # tied scores
        rc = classes[trial % 3]
        pairs = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rc.min_sep <= j - i and (rc.max_sep is None or j - i <= rc.max_sep)
        ]
        got = MX.precision_at_l_half(scores, truth, rc)
        k = n // 2
        if not pairs or k == 0:
            assert got == (0.0, True)
            continue
        pairs.sort(key=lambda p: (-scores[p[0], p[1]], p[0], p[1]))
        take = min(k, len(pairs))
        hits = sum(1 for i, j in pairs[:take] if truth.bits[i, j])
        assert got.precision == hits / take
        assert got.truncated == (take < k)

    # micro-F1 vs pooled-count loops
    for trial in range(120):
        rng = np.random.default_rng(7500 + trial)
        shape = (int(rng.integers(1, 30)),) if trial % 2 else (int(rng.integers(1, 12)), 7)
        pred = rng.integers(0, 2, size=shape)
        truth = rng.integers(0, 2, size=shape)
        tp = fp = fn = 0
        for p, t in zip(pred.ravel(), truth.ravel()):
            tp += p == 1 and t == 1
            fp += p == 1 and t == 0
            fn += p == 0 and t == 1
        want = 0.0 if 2 * tp + fp + fn == 0 else 2 * tp / (2 * tp + fp + fn)
        assert MX.micro_f1(pred, truth) == want, trial

    # Spearman vs scipy, including heavy ties
    checked = 0
    for trial in range(120):
        rng = np.random.default_rng(7800 + trial)
        n = int(rng.integers(3, 40))
        x = rng.normal(size=n)
        y = rng.normal(size=n)
        if trial % 2 == 0:
            x, y = np.round(x), np.round(y)
        if np.unique(x).size < 2 or np.unique(y).size < 2:
            continue
        want = scipy.stats.spearmanr(x, y).statistic
        assert abs(MX.spearman_rho(x, y) - want) < 1e-10
        checked += 1
    assert checked >= 100

    # deterministic tie-breaking: repeated runs agree bit for bit
    n = 14
    bits = np.zeros((n, n), dtype=bool)
    bits[0, 6] = bits[6, 0] = True
    tied_truth = D.ContactMap(n=n, bits=bits)
    tied_scores = np.zeros((n, n))
    runs = {MX.precision_at_l_half(tied_scores, tied_truth, MX.SHORT)
            for _ in range(5)}
    assert len(runs) == 1
    xs = np.array([1.0, 2.0, 2.0, 3.0, 3.0, 3.0])
    assert len({MX.spearman_rho(xs, xs[::-1]) for _ in range(5)}) == 1


# ---------------------------------------------------------------------------
# criterion 8: split determinism


def test_8_split_determinism():
    # hand-traced fixture 1: the 4-cycle a-b-c-d-a from seed 11 roots at
    # "a" and selects (a, b) under both traversals
    cycle = ppi_graph([("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")])
    for mode in ("bfs", "dfs"):
        spec = D.split_graph(cycle, mode, 0.5, seed=11)
        assert spec.root == "a"
        assert spec.selected == ("a", "b")
        assert spec.train_edges == (("c", "d"),)
        assert spec.test_edges == (("a", "b"), ("a", "d"), ("b", "c"))

    # hand-traced fixture 2: breadth visits a,b,c; depth dives a,b,d
    tree = ppi_graph([("a", "b"), ("a", "c"), ("b", "d"), ("c", "e")])
    bfs = D.split_graph(tree, "bfs", 0.5, seed=11)
    dfs = D.split_graph(tree, "dfs", 0.5, seed=11)
    assert bfs.selected == ("a", "b", "c") and bfs.train_edges == ()
    assert dfs.selected == ("a", "b", "d")
    assert dfs.train_edges == (("c", "e"),)

    # seed-deterministic, disjoint and covering on random graphs
    for trial in range(25):
        rng = np.random.default_rng(8000 + trial)
        n = int(rng.integers(5, 24))
        names = [f"n{i:02d}" for i in range(n)]
        edges = [(names[i], names[i + 1]) for i in range(n - 1)]
        for _ in range(n):
            i, j = rng.integers(n, size=2)
            if i != j:
                edges.append((names[int(i)], names[int(j)]))
        g = ppi_graph(edges)
        mode = "bfs" if trial % 2 else "dfs"
        seed = int(rng.integers(10_000))
        spec = D.split_graph(g, mode, 0.3, seed)
        assert spec == D.split_graph(g, mode, 0.3, seed)
        train, test = set(spec.train_edges), set(spec.test_edges)
        assert train | test == set(g.edges)
        assert not train & test
        chosen = set(spec.selected)
        assert all(a in chosen or b in chosen for a, b in test)
        assert all(a not in chosen and b not in chosen for a, b in train)


# ---------------------------------------------------------------------------
# criterion 9: end-to-end reproducibility


def test_9_bit_identical_reruns(corpus, tmp_path):
    out = tmp_path / "run"
    args = [
        "pretrain", "--fasta", str(corpus / "toy.fasta"),
        "--ppi", str(corpus / "toy_ppi.tsv"), "--out-dir", str(out),
        "--steps", "6", "--seed", "21", "--set", "d=16", "--set", "layers=1",
        "--set", "heads=2", "--set", "max_len=16", "--set", "batch_seqs=4",
        "--set", "batch_pairs=4", "--set", "checkpoint_every=3",
    ]
    assert main(args) == 0
    first = {
        name: (out / name).read_bytes()
        for name in ("final.bin", "ckpt_step3.bin", "ckpt_step6.bin")
    }
    shutil.rmtree(out)
    assert main(args) == 0
    for name, blob in first.items():
        assert (out / name).read_bytes() == blob, name
