"""Loss definitions, gradient routing and optimizer behaviour."""

import math
import operator
import tracemalloc
import types

import numpy as np
import pytest

from protprompt import cli
from protprompt import data as D
from protprompt import numerics as nm
from protprompt import objectives as O
from protprompt import tokenizer as T
from protprompt.config import build_config
from protprompt.errors import ConfigError, ContractError, NumericsError, ShapeError
from protprompt.model import ModelConfig, ProteinEncoder
from protprompt.numerics import Tape, Tensor

from conftest import (affine, bce_with_logits_mean, concat_rows, mean_over_rows, mlm_loss,
                      mul, pair_batch, ppi_loss, reference_forward_mlm, reference_forward_pairs,
                      reference_routed_step, reshape, scale, select_rows)


def test_uniform_logits_give_log_vocab_loss():
    logits = Tensor(np.zeros((4, 25)))
    loss = mlm_loss(logits, [3, 7, 11, 24])
    assert abs(loss.data.item() - 4 * math.log(25)) < 1e-9
    mean = mlm_loss(logits, [3, 7, 11, 24], reduction="mean")
    assert abs(mean.data.item() - math.log(25)) < 1e-9
    shifted = Tensor(np.full((2, 25), -3.5))  # softmax is shift-invariant
    assert abs(mlm_loss(shifted, [0, 1]).data.item() - 2 * math.log(25)) < 1e-9


def test_mlm_loss_validation():
    with pytest.raises(ContractError):
        mlm_loss(Tensor(np.zeros((2, 25))), [])
    with pytest.raises(ContractError):
        mlm_loss(Tensor(np.zeros((2, 25))), [0, 1, 2])
    with pytest.raises(ConfigError):
        mlm_loss(Tensor(np.zeros((2, 25))), [0, 1], reduction="median")


def test_bce_closed_forms():
    zero = Tensor(np.zeros((3, 1)))
    assert abs(ppi_loss(zero, np.ones((3, 1))).data.item() - math.log(2)) < 1e-9
    assert abs(ppi_loss(zero, np.zeros((3, 1))).data.item() - math.log(2)) < 1e-9
    z = Tensor(np.array([[2.0], [-2.0]]))
    want = math.log(1 + math.exp(-2.0))  # both rows are confidently correct
    got = ppi_loss(z, np.array([[1.0], [0.0]]))
    assert abs(got.data.item() - want) < 1e-9
    wrong = ppi_loss(z, np.array([[0.0], [1.0]]))
    assert abs(wrong.data.item() - (2.0 + math.log(1 + math.exp(-2.0)))) < 1e-9
    with pytest.raises(ContractError):
        ppi_loss(zero, np.full((3, 1), 0.5))


def test_bce_saturates_toward_zero():
    big = Tensor(np.full((2, 1), 40.0))
    assert ppi_loss(big, np.ones((2, 1))).data.item() < 1e-12


# ---------------------------------------------------------------------------
# train_step helpers


def _fixture(seed=0, prompts=("Seq", "IC"), d=16, layers=1, heads=2):
    cfg = ModelConfig(d=d, layers=layers, heads=heads, max_len=10, prompt_names=tuple(prompts))
    model = ProteinEncoder(cfg, seed=seed)
    seqs = [T.encode(s, 10, f"s{i}") for i, s in enumerate(("ACDEF", "WYKRH", "MNPQS"))]
    mlm = [T.apply_mlm_mask(s, 0.3, (5, i)) for i, s in enumerate(seqs)]
    pairs = [(seqs[0], seqs[1]), (seqs[1], seqs[2]), (seqs[0], seqs[2])]
    labels = np.array([[1.0], [0.0], [1.0]])
    ppi = pair_batch("ppi", pairs, labels)
    return model, mlm, ppi


def _snapshot(model):
    return {n: p.data.copy() for n, p in model.parameters().items()}


def _two_tasks(ppi):
    """ppi plus a 7-type task over the same pairs, which takes the other head."""
    labels = np.random.default_rng(3).integers(0, 2, size=(len(ppi.pairs), 7)).astype(float)
    return [ppi, O.PairTaskBatch("types", ppi.proteins, ppi.pairs, labels)]


def _logged_total(l_conserve, task_losses, lambda_weight, alpha):
    """The total cell cli._log_row writes for train_step's losses."""
    cfg = types.SimpleNamespace(lambda_weight=lambda_weight, alpha=lambda: alpha)
    return float(cli._log_row(0, l_conserve, task_losses, cfg).split(",")[-1])


def test_injection_loss_weighted_fold():
    # L_inject = sum_t alpha_t * L_t in task order (a task alpha leaves out
    # weighs 1); no tasks fold to 0
    model, mlm, ppi = _fixture()
    opt = O.Adam(model.parameters(), lr=1e-4)
    alpha = {"ppi": 0.5, "types": 2.0}
    l_conserve, task_losses = O.train_step(model, opt, None, _two_tasks(ppi), True, 1.0, alpha)
    l_ppi, l_types = task_losses["ppi"], task_losses["types"]
    assert list(task_losses) == ["ppi", "types"]
    assert l_conserve == 0.0 and l_ppi > 0 and l_types > 0
    assert _logged_total(l_conserve, task_losses, 1.0, alpha) == l_ppi * 0.5 + l_types * 2.0
    unit = O.train_step(model, opt, None, [ppi], True, 1.0, {})
    assert _logged_total(*unit, 1.0, {}) == unit[1]["ppi"]
    l_mlm, no_tasks = O.train_step(model, opt, mlm, [], True, 0.7, {"ppi": 0.5})
    assert no_tasks == {} and _logged_total(l_mlm, no_tasks, 0.7, {"ppi": 0.5}) == l_mlm


def test_report_decomposition_recomputes_bitwise():
    # the logged total is L_conserve + L_inject * lambda, folded in that order,
    # and the log line carries each cell at full precision
    model, mlm, ppi = _fixture()
    opt = O.Adam(model.parameters(), lr=1e-4)
    alpha = {"ppi": 0.5, "types": 2.0}
    l_conserve, task_losses = O.train_step(model, opt, mlm, _two_tasks(ppi), True, 0.7, alpha)
    l_ppi, l_types = task_losses["ppi"], task_losses["types"]
    assert l_conserve > 0 and l_ppi > 0 and l_types > 0
    total = l_conserve + (l_ppi * 0.5 + l_types * 2.0) * 0.7
    l_none, task_only = O.train_step(model, opt, None, [ppi], True, 0.7, {})
    assert l_none == 0.0
    assert _logged_total(l_none, task_only, 0.7, {}) == task_only["ppi"] * 0.7
    cfg = types.SimpleNamespace(lambda_weight=0.7, alpha=lambda: alpha)
    line = cli._log_row(3, l_conserve, task_losses, cfg)
    cells = line.rstrip("\n").split(",")
    assert cells[0] == "3"
    assert [float(c) for c in cells[1:]] == [l_conserve, l_ppi, l_types, total]


def test_source_sweeps_give_the_bits_of_one_weighted_total_sweep():
    # a sweep per source, tasks last-first and masked-LM last, hands every
    # parameter the bits one sweep of add(l_mlm, scale(sum_t scale(l_t,
    # alpha_t), lambda)) on a joint tape gives it
    model, mlm, ppi = _fixture(seed=14)
    params = model.parameters()
    with Tape() as tape:
        l_mlm = O._forward_mlm(model, mlm, "sum")
        l_ppi, l_types = (O._forward_pairs(model, b) for b in _two_tasks(ppi))
        total = nm.add(l_mlm, scale(nm.add(scale(l_ppi, 0.5), scale(l_types, 2.0)), 0.7))
    nm.backward(tape, total)
    want = {n: p.grad for n, p in params.items() if p.grad is not None}
    opt = O.Adam(params, lr=1e-3)
    seen = _adam_inputs(opt)
    O.train_step(model, opt, mlm, _two_tasks(ppi), False, 0.7, {"ppi": 0.5, "types": 2.0})
    (got,) = seen
    assert got.keys() == want.keys()
    assert all(np.array_equal(got[n], want[n]) for n in want)


def test_routing_blocks_conserve_gradient_from_ic():
    # mlm-only step: IC must stay bitwise untouched, Seq and encoder move
    model, mlm, _ = _fixture(seed=1)
    before = _snapshot(model)
    opt = O.Adam(model.parameters(), lr=1e-3)
    O.train_step(model, opt, mlm, [], True, 1.0, {"ppi": 1.0})
    assert np.array_equal(model.prompts["IC"].data, before["prompt.IC"])
    assert not np.array_equal(model.prompts["Seq"].data, before["prompt.Seq"])
    assert not np.array_equal(model.parameters()["embed.tok"].data, before["embed.tok"])
    assert np.all(opt.m["prompt.IC"] == 0.0)


def test_routing_blocks_task_gradient_from_seq():
    # task-only step: Seq must stay bitwise untouched, IC moves
    model, _, ppi = _fixture(seed=2)
    before = _snapshot(model)
    opt = O.Adam(model.parameters(), lr=1e-3)
    O.train_step(model, opt, None, [ppi], True, 1.0, {"ppi": 1.0})
    assert np.array_equal(model.prompts["Seq"].data, before["prompt.Seq"])
    assert not np.array_equal(model.prompts["IC"].data, before["prompt.IC"])
    assert np.all(opt.m["prompt.Seq"] == 0.0)


def test_lambda_zero_equals_mlm_only_run():
    runs = []
    for include_task in (True, False):
        model, mlm, ppi = _fixture(seed=3)
        opt = O.Adam(model.parameters(), lr=1e-3)
        tasks = [ppi] if include_task else []
        for _ in range(3):
            O.train_step(model, opt, mlm, tasks, True, 0.0, {"ppi": 1.0})
        runs.append(_snapshot(model))
    with_task, without = runs
    for name in with_task:
        assert np.array_equal(with_task[name], without[name]), name


def test_alpha_zero_equals_mlm_only_run():
    runs = []
    for alpha in (0.0, None):
        model, mlm, ppi = _fixture(seed=4)
        opt = O.Adam(model.parameters(), lr=1e-3)
        tasks = [ppi] if alpha is not None else []
        a = {"ppi": alpha} if alpha is not None else {}
        for _ in range(3):
            O.train_step(model, opt, mlm, tasks, True, 1.0, a)
        runs.append(_snapshot(model))
    assert all(np.array_equal(runs[0][n], runs[1][n]) for n in runs[0])


def test_routing_off_lets_everything_through():
    model, mlm, _ = _fixture(seed=5)
    before = _snapshot(model)
    opt = O.Adam(model.parameters(), lr=1e-3)
    O.train_step(model, opt, mlm, [], False, 1.0, {"ppi": 1.0})
    assert not np.array_equal(model.prompts["IC"].data, before["prompt.IC"])


def test_frozen_prompts_table():
    # (prompts, source, routing) -> prompts held constant in that forward
    table = [
        (("Seq", "IC"), "mlm", True, {"IC"}),
        (("Seq", "IC"), "ppi", True, {"Seq"}),
        (("Seq", "IC", "PPI"), "mlm", True, {"IC", "PPI"}),
        (("Seq", "IC", "PPI"), "ppi", True, {"Seq"}),
        (("IC", "Seq"), "mlm", True, {"IC"}),
        (("Seq",), "mlm", True, set()),
        (("Seq",), "ppi", True, {"Seq"}),
        (("IC",), "ppi", True, set()),
        ((), "mlm", True, set()),
        (("Seq", "IC", "PPI"), "mlm", False, set()),
        (("Seq", "IC", "PPI"), "ppi", False, set()),
    ]
    for prompts, source, routing, want in table:
        got = O.frozen_prompts(prompts, source, routing)
        assert isinstance(got, frozenset) and got == want, (prompts, source, routing)


def test_train_step_sweeps_backward_once_per_source(monkeypatch):
    # the task first, seeded with lambda * alpha, then the masked-LM loss
    model, mlm, ppi = _fixture(seed=8)
    opt = O.Adam(model.parameters(), lr=1e-3)
    weights = []
    backward = nm.backward
    monkeypatch.setattr(nm, "backward", lambda *a: weights.append(a[2]) or backward(*a))
    for step in range(3):
        O.train_step(model, opt, mlm, [ppi], True, 0.7, {"ppi": 1.3})
        assert weights == [0.7 * 1.3, 1.0] * (step + 1)


def test_a_step_holds_one_sources_tape_at_a_time():
    # each source's tape and loss node die before the next source's forward,
    # so a two-source step peaks no higher than its larger source alone; the
    # peak is taken over the whole step and as Adam is called, where a loss
    # node kept bound through the next source's forward shows (1.22x against
    # 1.01x); with Adam in place, the sweeps set both
    model, mlm, ppi = _fixture(seed=9, d=32, layers=2, heads=4)
    opt = O.Adam(model.parameters(), lr=1e-3)
    step, swept, whole = opt.step, {}, {}

    def measured(grads):
        swept[name] = tracemalloc.get_traced_memory()[1]
        step(grads)

    opt.step = measured
    for name, (mlm_batch, tasks) in {"mlm": (mlm, []), "ppi": (None, [ppi]),
                                     "both": (mlm, [ppi])}.items():
        O.train_step(model, opt, mlm_batch, tasks, True, 1.0, {})
        tracemalloc.start()
        try:
            O.train_step(model, opt, mlm_batch, tasks, True, 1.0, {})
            whole[name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    for peaks in (swept, whole):
        assert peaks["both"] <= 1.05 * max(peaks["mlm"], peaks["ppi"]), peaks


# the paper's routes, prompt -> the loss sources that may update it, and
# the routes with routing off
ROUTED = {"Seq": {"mlm"}, "IC": {"ppi"}}
OPEN = {"Seq": {"mlm", "ppi"}, "IC": {"mlm", "ppi"}}


def _adam_inputs(opt):
    """Wrap opt.step so every gradient dict it receives is kept."""
    seen = []
    step = opt.step

    def keep(grads):
        seen.append({k: g for k, g in grads.items() if g is not None})
        step(grads)

    opt.step = keep
    return seen


@pytest.mark.parametrize("weights", [(1.0, 1.0), (0.7, 1.3)], ids=["unit", "weighted"])
@pytest.mark.parametrize("routing", [True, False], ids=["default", "open"])
def test_single_sweep_matches_per_source_router(routing, weights):
    # a pretrain-shaped step: mean MLM plus BCE, every prompt on every source
    lam, a = weights
    alpha = {"ppi": a}
    routes = ROUTED if routing else OPEN
    model, mlm, ppi = _fixture(seed=9, d=32, layers=2, heads=4)
    opt = O.Adam(model.parameters(), lr=1e-3)
    seen = _adam_inputs(opt)
    l_conserve, task_losses = O.train_step(model, opt, mlm, [ppi], routing, lam, alpha,
                                           mlm_reduction="mean")
    ref_model, ref_mlm, ref_ppi = _fixture(seed=9, d=32, layers=2, heads=4)
    ref_opt = O.Adam(ref_model.parameters(), lr=1e-3)
    want, ref_losses = reference_routed_step(ref_model, ref_opt, ref_mlm, [ref_ppi], routes,
                                             lam, alpha, mlm_reduction="mean")
    # holding a prompt constant changes no forward value
    assert l_conserve == ref_losses["mlm"] and task_losses == {"ppi": ref_losses["ppi"]}
    (got,) = seen
    assert got.keys() == want.keys()
    for name, g in want.items():
        assert np.abs(got[name] - g).max() <= 1e-12, name
        single_source = name.startswith("head.") or (
            name.startswith("prompt.") and routing)
        if lam * a == 1.0 and single_source:
            assert np.array_equal(got[name], g), name


def test_loss_columns_match_per_source_router_over_50_steps():
    runs = []
    for single_sweep in (True, False):
        model, mlm, ppi = _fixture(seed=10)
        opt = O.Adam(model.parameters(), lr=1e-3)
        rows = []
        for _ in range(50):
            if single_sweep:
                l_conserve, task_losses = O.train_step(model, opt, mlm, [ppi], True, 0.7,
                                                       {"ppi": 1.3})
                rows.append((l_conserve, task_losses["ppi"]))
            else:
                _, losses = reference_routed_step(model, opt, mlm, [ppi], ROUTED,
                                                  0.7, {"ppi": 1.3})
                rows.append((losses["mlm"], losses["ppi"]))
        runs.append(np.array(rows))
    single, per_source = runs
    assert np.all(np.abs(single - per_source) <= 1e-9 * np.abs(per_source))
    assert not np.array_equal(single[0], single[-1])  # training moved the losses


def test_train_step_rejects_empty_and_duplicates():
    model, mlm, ppi = _fixture(seed=6)
    opt = O.Adam(model.parameters(), lr=1e-3)
    with pytest.raises(ContractError):
        O.train_step(model, opt, None, [], True, 1.0, {})
    with pytest.raises(ContractError, match="duplicate"):
        O.train_step(model, opt, None, [ppi, ppi], True, 1.0, {})


def test_pair_forward_pools_each_protein_once(tmp_path):
    # cli._ppi_batches lists each distinct protein once, in order of first
    # use over the positives and then the drawn negatives, and _forward_pairs
    # encodes each of them once
    model, _, _ = _fixture(seed=7)
    tsv = tmp_path / "ppi.tsv"
    tsv.write_text("a\tb\t1\nb\tc\t1\nc\td\t1\nd\te\t1\n")
    graph, _ = D.parse_ppi_tsv(tsv)
    encoded = {name: T.encode(res, 10, name)
               for name, res in zip("abcde", ("ACDEF", "WYKRH", "MNPQS", "GHIKL", "TVWYA"))}
    cfg = build_config(overrides={"batch_pairs": "3", "seed": "2"})
    ppi = cli._ppi_batches(graph, encoded, cfg, 1)(0)
    name_of = {id(seq): name for name, seq in encoded.items()}
    ends = [[name_of[id(ppi.proteins[i])] for i in pair] for pair in ppi.pairs]
    is_edge = [tuple(sorted(e)) in graph.edges for e in ends]
    assert is_edge == [True] * 3 + [False] * 3
    used = [name for pair in ends for name in pair]
    assert [name_of[id(seq)] for seq in ppi.proteins] == list(dict.fromkeys(used))
    calls = []
    original = model.encode

    def counting_encode(seq, *args, **kwargs):
        calls.append(seq)
        return original(seq, *args, **kwargs)

    model.encode = counting_encode
    O._forward_pairs(model, ppi)
    assert len(calls) == len(ppi.proteins) and all(map(operator.is_, calls, ppi.proteins))


# ---------------------------------------------------------------------------
# the fused loss nodes against the per-sequence chain in conftest


def _step_fixture(width=1, seed=12):
    """A pretrain-shaped model (d=32, 2 layers, 4 heads) with six proteins of
    6 to 30 residues; s0 sits in three pairs, once paired with itself."""
    cfg = ModelConfig(d=32, layers=2, heads=4, max_len=40, prompt_names=("Seq", "IC"))
    model = ProteinEncoder(cfg, seed=seed)
    rng = np.random.default_rng(seed)
    residues = "ACDEFGHIKLMNPQRSTVWY"
    seqs = [T.encode("".join(residues[int(k)] for k in rng.integers(20, size=n)), 40, f"s{i}")
            for i, n in enumerate((6, 30, 17, 9, 24, 12))]
    mlm = [T.apply_mlm_mask(s, 0.3, (seed, i)) for i, s in enumerate(seqs)]
    pairs = [(seqs[0], seqs[1]), (seqs[2], seqs[0]), (seqs[0], seqs[0]), (seqs[3], seqs[4]),
             (seqs[5], seqs[2])]
    labels = rng.integers(0, 2, size=(len(pairs), width)).astype(np.float64)
    return model, mlm, pair_batch("ppi", pairs, labels)


def _loss_and_grads(model, forward):
    params = model.parameters()
    for p in params.values():
        p.grad = None
    with Tape() as tape:
        loss = forward()
    nm.backward(tape, loss)
    return loss.data.item(), {n: p.grad for n, p in params.items() if p.grad is not None}


def _assert_close(got, want):
    (got_loss, got_grads), (want_loss, want_grads) = got, want
    assert abs(got_loss - want_loss) <= 1e-12
    assert got_grads.keys() == want_grads.keys()
    for name, g in want_grads.items():
        assert np.abs(got_grads[name] - g).max() <= 1e-12, name


FROZEN = [frozenset(), frozenset({"IC"}), frozenset({"Seq", "IC"})]


@pytest.mark.parametrize("frozen", FROZEN, ids=["live", "ic-frozen", "all-frozen"])
@pytest.mark.parametrize("reduction", ["sum", "mean"])
def test_mlm_node_matches_the_per_sequence_chain(reduction, frozen):
    model, mlm, _ = _step_fixture()
    got = _loss_and_grads(model, lambda: O._forward_mlm(model, mlm, reduction, frozen))
    want = _loss_and_grads(model, lambda: reference_forward_mlm(model, mlm, reduction, frozen))
    _assert_close(got, want)
    assert {f"prompt.{n}" for n in frozen}.isdisjoint(got[1])


@pytest.mark.parametrize("frozen", FROZEN, ids=["live", "ic-frozen", "all-frozen"])
@pytest.mark.parametrize("width", [1, 7])
def test_pair_node_matches_the_per_pair_chain(width, frozen):
    model, _, ppi = _step_fixture(width)
    got = _loss_and_grads(model, lambda: O._forward_pairs(model, ppi, frozen))
    want = _loss_and_grads(model, lambda: reference_forward_pairs(model, ppi, frozen))
    _assert_close(got, want)
    head = "head.pair_bin" if width == 1 else "head.pair"
    assert {n for n in got[1] if n.startswith("head.")} == {f"{head}.w", f"{head}.b"}


@pytest.mark.parametrize("width", [1, 7])
@pytest.mark.parametrize("d", [8, 32, 64])
def test_eval_pair_logits_are_the_training_logits(d, width):
    # eval --task ppi calls pair_logits once per edge, while pair_bce scores a
    # step's pairs in one call. Both run the pair kernel, whose sums over d do
    # not depend on the pairs sharing a call, so the logits agree bit for bit
    # at every batch size, and so does the loss computed from them
    model = ProteinEncoder(ModelConfig(d=d, layers=1, heads=2, max_len=24,
                                       prompt_names=("Seq", "IC")), seed=d + width)
    rng = np.random.default_rng(d * width)
    residues = "ACDEFGHIKLMNPQRSTVWY"
    seqs = [T.encode("".join(residues[int(k)] for k in rng.integers(20, size=n)), 24, f"s{i}")
            for i, n in enumerate(rng.integers(1, 23, size=10))]
    outs = [model.encode(s, tuple(model.prompts)) for s in seqs]
    pooled = np.array([model.pool(out).data for out in outs])
    w, b = model.pair_head(width)
    for size in (1, 16, *rng.integers(2, 16, size=6)):
        left, right = rng.integers(len(seqs), size=(2, size))
        batch_z, _ = nm._pair_forward(pooled[left], pooled[right], w.data, b.data)
        edge_z = np.array([model.pair_logits(model.pool(outs[i]), model.pool(outs[j]), width).data
                           for i, j in zip(left, right)])
        assert edge_z.tobytes() == batch_z.tobytes()
        labels = rng.integers(0, 2, size=(size, width)).astype(np.float64)
        batch = pair_batch("ppi", [(seqs[i], seqs[j]) for i, j in zip(left, right)], labels)
        bce = np.maximum(edge_z, 0.0) - edge_z * labels + np.log1p(np.exp(-np.abs(edge_z)))
        assert O._forward_pairs(model, batch).data.tobytes() == np.asarray(bce.mean()).tobytes()
        # the fixed-order sums reorder the matmul's additions (aim 3's bound)
        oracle = affine(mul(Tensor(pooled[left]), Tensor(pooled[right])), w, b).data
        assert np.abs(batch_z - oracle).max() <= 1e-12


def test_pair_node_counts_a_repeated_row_each_time():
    # a row listed twice weighs twice in its protein's mean and gradient
    rng = np.random.default_rng(15)
    hs = [Tensor(rng.normal(size=(6, 4)), requires_grad=True) for _ in range(2)]
    w, b = Tensor(rng.normal(size=(4, 1)), requires_grad=True), Tensor(np.zeros(1), True)
    rows, y = [np.array([1, 2, 2, 4]), np.array([0, 5])], np.array([[1.0], [0.0]])

    def chain():
        v = [mean_over_rows(select_rows(h, r)) for h, r in zip(hs, rows)]
        z = [reshape(affine(mul(v[0], v[1]), w, b), (1, 1)),
             reshape(affine(mul(v[1], v[1]), w, b), (1, 1))]
        return bce_with_logits_mean(concat_rows(z), y)

    grads = []
    for forward in (lambda: nm.pair_bce(hs, rows, [0, 1], [1, 1], w, b, y), chain):
        for t in (*hs, w, b):
            t.grad = None
        with Tape() as tape:
            loss = forward()
        nm.backward(tape, loss)
        grads.append([loss.data] + [t.grad for t in (*hs, w, b)])
    for got, want in zip(*grads):
        assert np.abs(got - want).max() <= 1e-12


def test_pair_node_checks_labels():
    model, _, ppi = _step_fixture()
    with pytest.raises(ShapeError, match="labels shape"):
        O._forward_pairs(model, O.PairTaskBatch("ppi", ppi.proteins, ppi.pairs, np.zeros((4, 1))))


def test_mlm_node_checks_rows_and_targets():
    model, mlm, _ = _step_fixture()
    hs = [model.encode(T.TokenSequence(ids=m.corrupted), ()).h for m in mlm[:2]]
    rows, targets = [np.array([1, 2]), np.array([3])], [np.array([4, 5]), np.array([6])]
    w, b = model.head("mlm")
    with pytest.raises(ContractError, match="targets for"):
        nm.cross_entropy_rows(hs, rows, [np.array([4]), np.array([6])], w, b)
    with pytest.raises(ShapeError, match="target out of range"):
        nm.cross_entropy_rows(hs, rows, [np.array([4, 25]), np.array([6])], w, b)
    with pytest.raises(ShapeError, match="row out of range"):
        nm.cross_entropy_rows(hs, [np.array([1, 99]), np.array([3])], targets, w, b)
    with pytest.raises(ShapeError, match="does not fit"):
        nm.cross_entropy_rows(hs, rows, targets, w, model.heads["head.pair.b"])
    with pytest.raises(ContractError, match="chosen row"):
        nm.cross_entropy_rows(hs, [rows[0], np.array([], dtype=np.intp)], targets, w, b)
    with pytest.raises(ContractError, match="one sequence"):
        nm.cross_entropy_rows([], [], [], w, b)


def test_non_finite_head_logits_name_the_affine():
    model, mlm, ppi = _step_fixture(seed=13)
    model.heads["head.mlm.b"].data[3] = np.inf
    model.heads["head.pair_bin.b"].data[0] = np.inf
    with Tape():
        with pytest.raises(NumericsError, match="affine"):
            O._forward_mlm(model, mlm, "sum")
        with pytest.raises(NumericsError, match="affine"):
            O._forward_pairs(model, ppi)


@pytest.mark.parametrize("bias", [800.0, -800.0])
def test_pair_backward_past_exp_overflow_stays_finite(bias):
    # every logit sits beyond |z| = 709, where exp(|z|) overflows
    model, _, ppi = _step_fixture(seed=14)
    model.heads["head.pair_bin.b"].data[:] = bias
    with np.errstate(over="raise", invalid="raise"):
        loss, grads = _loss_and_grads(model, lambda: O._forward_pairs(model, ppi))
    assert np.isfinite(loss) and all(np.isfinite(g).all() for g in grads.values())
    sig = 1.0 if bias > 0 else 0.0
    want = ((sig - ppi.labels) / ppi.labels.size).sum(axis=0)
    assert np.array_equal(grads["head.pair_bin.b"], want)


# ---------------------------------------------------------------------------
# optimizer


def test_adam_matches_manual_first_step():
    p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    opt = O.Adam({"p": p}, lr=0.1)
    g = np.array([0.5, -0.5])
    opt.step({"p": g})
    # bias-corrected first step moves by lr * g/|g| elementwise
    m_hat = (0.1 * g) / (1 - 0.9)
    v_hat = (0.001 * g * g) / (1 - 0.999)
    want = np.array([1.0, 2.0]) - 0.1 * m_hat / (np.sqrt(v_hat) + 1e-8)
    assert np.allclose(p.data, want, atol=1e-14)


def test_adam_zero_gradient_leaves_parameter_bitwise():
    p = Tensor(np.array([1.0, -2.0, 3.5]), requires_grad=True)
    q = Tensor(np.array([4.0]), requires_grad=True)
    opt = O.Adam({"p": p, "q": q}, lr=0.5)
    before = p.data.copy()
    for _ in range(10):
        opt.step({"q": np.array([1.0])})  # p absent -> zero gradient
    assert np.array_equal(p.data, before)
    assert not np.array_equal(q.data, np.array([4.0]))


def test_adam_in_place_step_matches_the_textbook_update_bitwise():
    rng = np.random.default_rng(11)
    p = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    opt = O.Adam({"p": p}, lr=0.01)
    want, m, v = p.data.copy(), np.zeros((4, 3)), np.zeros((4, 3))
    for t in range(1, 6):
        g = rng.normal(size=(4, 3))
        opt.step({"p": g})
        m = 0.9 * m + (1.0 - 0.9) * g
        v = 0.999 * v + (1.0 - 0.999) * (g * g)
        want -= 0.01 * (m / (1.0 - 0.9**t)) / (np.sqrt(v / (1.0 - 0.999**t)) + 1e-8)
        assert np.array_equal(p.data, want) and np.array_equal(opt.m["p"], m)
        assert np.array_equal(opt.v["p"], v)


def test_adam_step_peaks_below_two_and_a_half_of_its_largest_parameter():
    # m, v and the parameter are updated in place and the step is built in
    # two arrays; fresh arrays per update peaked at 5.0x here
    model = ProteinEncoder(ModelConfig.from_run_config(build_config()), seed=0)
    params = model.parameters()
    rng = np.random.default_rng(0)
    grads = {n: rng.normal(size=p.shape) for n, p in params.items()}
    tracemalloc.start()
    try:
        opt = O.Adam(params, lr=1e-3)
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        opt.step(grads)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * max(p.data.nbytes for p in params.values()), peak
