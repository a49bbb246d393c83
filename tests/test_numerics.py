"""Gradient and shape contracts of the tensor primitives.

Every differentiable primitive is checked against central finite
differences through a generic functional (contraction with a fixed random
matrix) so no true gradient is accidentally zero.
"""

import numpy as np
import pytest

from protprompt import numerics as nm
from protprompt import tokenizer as T
from protprompt.errors import ContractError, NumericsError, ShapeError
from protprompt.model import INIT_STD, ModelConfig, ProteinEncoder
from protprompt.numerics import Tape, Tensor

from conftest import (OracleError, affine, bce_with_logits_mean, concat_rows,
                      embedding_lookup, finite_diff_check, gelu, layernorm, log_softmax_rows,
                      mean_over_rows, mul, multihead_attention, normalised_first_attention,
                      pick, reference_affine, reference_attention, reference_contact,
                      reference_gelu, reference_layernorm, reshape, rowsum_d_attention_backward,
                      scale, select_rows, sum_all)

FD_TOL = 1e-6


def _probe(shape, seed):
    """Random constant used to turn any output into a generic scalar."""
    return Tensor(np.random.default_rng(seed).normal(0.0, 1.0, shape))


def _as_scalar(t):
    if t.data.ndim == 0:
        return t
    if t.data.ndim == 1:
        return sum_all(mul(t, _probe(t.shape, 99)))
    return sum_all(mul(t, _probe(t.shape, 99)))


def _check(f, x, tol=FD_TOL):
    err = finite_diff_check(lambda t: _as_scalar(f(t)), x, eps=1e-5)
    assert err < tol, f"finite difference error {err}"


def _rand(shape, seed, scale=1.0):
    return Tensor(np.random.default_rng(seed).normal(0.0, scale, shape), requires_grad=True)


def test_add_mul_gradients():
    b = Tensor(np.random.default_rng(1).normal(0, 1, (3, 4)))
    _check(lambda t: nm.add(t, b), _rand((3, 4), 2))
    _check(lambda t: mul(t, b), _rand((3, 4), 5))


def test_scale_gradients():
    _check(lambda t: scale(t, -2.5), _rand((3, 4), 7))


def test_reshape_concat_slice_gradients():
    _check(lambda t: reshape(t, (4, 3)), _rand((3, 4), 11))
    _check(lambda t: reshape(t, (12,)), _rand((3, 4), 12))
    b = Tensor(np.random.default_rng(13).normal(0, 1, (2, 4)))
    _check(lambda t: concat_rows([t, b]), _rand((3, 4), 14))
    _check(lambda t: select_rows(t, np.arange(1, 3)), _rand((4, 3), 17))


def test_gather_gradients():
    # duplicate indices must accumulate
    _check(lambda t: select_rows(t, [0, 2, 2, 1]), _rand((3, 4), 19))
    _check(lambda t: pick(t, [0, 1, 1], [2, 0, 0]), _rand((3, 4), 20))
    _check(lambda t: embedding_lookup(t, [1, 1, 0, 2]), _rand((3, 4), 21))


def test_reduction_gradients():
    _check(lambda t: sum_all(t), _rand((3, 4), 22))
    _check(lambda t: mean_over_rows(t), _rand((5, 3), 23))


def test_softmax_family_gradients():
    _check(lambda t: log_softmax_rows(t), _rand((3, 5), 25))


def _attention_inputs(m=2, n=5, d=8, seed=50):
    """q, k, v over m prompts + n inputs, and a probe g."""
    rng = np.random.default_rng(seed)
    q, k, v = (_rand((m + n, d), seed + i) for i in range(3))
    return q, k, v, rng.normal(0.0, 1.0, (m + n, d))


@pytest.mark.parametrize("heads", [1, 2, 4, 8], ids=lambda h: f"{h}-additive")
def test_multihead_attention_matches_per_head_reference(heads):
    # the structural kernel against the explicit-mask oracle over a grid of
    # prompt counts m and input lengths n (a loop, so the test ids stay put;
    # so do the ids' "additive", from when a second mask mode existed)
    for m in (0, 1, 3):
        for n in (1, 5):
            q, k, v, g = _attention_inputs(m, n)
            tape = Tape()
            with tape:
                out = multihead_attention(q, k, v, heads, m)
                loss = sum_all(mul(out, Tensor(g)))
            assert len(tape.nodes) == 3  # attention, mul, sum_all: one node for all heads
            nm.backward(tape, loss)
            ref_out, dq, dk, dv = reference_attention(q.data, k.data, v.data, heads, m, g)
            assert np.array_equal(out.data, ref_out), (m, n)
            for t, ref in ((q, dq), (k, dk), (v, dv)):
                assert np.abs(t.grad - ref).max() <= 1e-12, (m, n)


@pytest.mark.parametrize("dh", [4, 8, 16])
def test_deferred_normalisation_stays_within_1e_12_of_the_old_order(dh):
    # the kernel folds c into Q, scores input rows only and normalises after
    # the value product; before that it scaled the scores, scored every row
    # and normalised first. Outputs and gradients stay within 1e-12 of that
    # order over m prompts and n rows in all
    for n in (8, 73, 254):
        for m in (0, 1, 3):
            q, k, v, g = _attention_inputs(m, n - m, d=2 * dh, seed=n + m)
            tape = Tape()
            with tape:
                loss = sum_all(mul(multihead_attention(q, k, v, 2, m), Tensor(g)))
            nm.backward(tape, loss)
            got = (tape.nodes[0].data, q.grad, k.grad, v.grad)
            want = normalised_first_attention(q.data, k.data, v.data, 2, m, g)
            for a, b in zip(got, want):
                assert np.abs(a - b).max() <= 1e-12, (n, m)


@pytest.mark.parametrize("heads", [1, 4])
def test_d_from_the_output_stays_within_1e_12_of_the_score_product(heads):
    # the backward takes D = rowsum(dY * Y) as rowsum(G * O), which sums in
    # another order; its gradients stay within 1e-12 of the old order over m
    # prompts and n rows in all, up to 256
    for n in (8, 73, 256):
        for m in (0, 1, 3):
            q, k, v, g = _attention_inputs(m, n - m, d=32, seed=n + m)
            out, saved = nm._attention_forward(q.data, k.data, v.data, heads, m, True)
            got = nm._attention_backward(g, out, saved)
            for a, b in zip(got, rowsum_d_attention_backward(g, saved)):
                assert np.abs(a - b).max() <= 1e-12, (n, m)


def test_multihead_attention_rejects_bad_arguments():
    q, k, v, _ = _attention_inputs()
    with pytest.raises(ShapeError, match="3 heads"):
        multihead_attention(q, k, v, 3, 2)
    with pytest.raises(ShapeError, match=r"\(6, 8\)"):
        multihead_attention(q, k, Tensor(v.data[1:]), 2, 2)


def test_one_way_flow_is_exact_for_any_finite_score():
    # prompt row 0 scores -5e9 against itself and +5e9 against input row 2:
    # a finite -1e9 penalty would leave row 2 the winner, applying the mask
    # by structure leaves the prompt its own value row, bit for bit
    q, k, v = (Tensor(np.random.default_rng(seed).normal(size=(4, 4))) for seed in (70, 71, 72))
    q.data[0], k.data[0], k.data[2] = [1e5, 0, 0, 0], [-1e5, 0, 0, 0], [1e5, 0, 0, 0]
    out = multihead_attention(q, k, v, 1, 1)
    assert out.data[0].tobytes() == v.data[0].tobytes()


def test_fused_encoder_nodes_reject_bad_arguments():
    x, *_ = _attention_inputs()
    weights = [_rand(shape, i) for i, shape in enumerate(
        [(8, 8), (8,)] * 4 + [(8,), (8,), (8, 32), (32,), (32, 8), (8,), (8,), (8,)])]
    with pytest.raises(ShapeError, match="16 weights"):
        nm.encoder_layer(x, weights[:-1], 2, 2)
    with pytest.raises(ShapeError, match="do not fit width 8"):
        nm.encoder_layer(x, weights[:12] + [_rand((8, 8), 0)] + weights[13:], 2, 2)
    with pytest.raises(ShapeError, match="3 heads"):
        nm.encoder_layer(x, weights, 3, 2)
    tok, seg, pos = _rand((9, 5), 1), _rand((1, 5), 2), _rand((4, 5), 3)
    with pytest.raises(ShapeError, match="differ in width"):
        nm.encoder_input(tok, _rand((1, 4), 2), pos, [1, 2])
    with pytest.raises(ShapeError, match="prompt shapes"):
        nm.encoder_input(tok, seg, pos, [1, 2], [_rand(4, 4)])
    with pytest.raises(ShapeError, match="9 rows"):
        nm.encoder_input(tok, seg, pos, [1, 9])
    with pytest.raises(ShapeError, match="4 rows"):
        nm.encoder_input(tok, seg, pos, [1, 2, 3, 4, 5])


@pytest.mark.parametrize("position, op", [(4, "affine"), (12, "affine")],
                         ids=["value-affine", "ff-out-affine"])
def test_fused_layer_checks_its_intermediates(position, op):
    # an overflowing weight must stop the layer at the op that overflowed,
    # as the per-op chain did, not at a later NaN
    x, *_ = _attention_inputs()
    weights = [_rand(shape, i) for i, shape in enumerate(
        [(8, 8), (8,)] * 4 + [(8,), (8,), (8, 32), (32,), (32, 8), (8,), (8,), (8,)])]
    weights[position].data[:] = 1e308
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericsError, match=f"produced by {op}$"):
            nm.encoder_layer(x, weights, 2, 2)


# 8, 9, 16 and 17 sit on both sides of block edges (8 rows per backward
# block, diagonals 1-8, 9-16, ... per forward block); 254 is the longest
# sequence max_len=256 holds
@pytest.mark.parametrize("n", [1, 2, 8, 9, 16, 17, 73, 254])
def test_contact_scores_match_the_gather_reference(n):
    # model-shaped inputs: layer-normed rows, head weights at init scale
    d = 64
    rng = np.random.default_rng(n)
    x = Tensor(rng.normal(0.0, 1.0, (n, d)))
    h = layernorm(x, Tensor(np.ones(d)), Tensor(np.zeros(d)))
    h.requires_grad = True
    w_prod, w_diff = (Tensor(rng.normal(0.0, INIT_STD, (d, 1)), requires_grad=True)
                      for _ in range(2))
    b = Tensor(rng.normal(0.0, INIT_STD, 1), requires_grad=True)
    g = rng.normal(size=(n, n))
    tape = Tape()
    with tape:
        out = nm.contact_scores(h, np.arange(n), w_prod, w_diff, b)
        loss = sum_all(mul(out, Tensor(g)))
    assert len(tape.nodes) == 3  # contact_scores, mul, sum_all
    nm.backward(tape, loss)
    ref_out, *ref_grads = reference_contact(h.data, w_prod.data, w_diff.data, b.data, g)
    assert np.array_equal(out.data, out.data.T)
    assert np.abs(out.data - ref_out).max() <= 1e-12
    # the weight gradients sum n*n terms in another order than the
    # reference; their magnitude and rounding grow with n*n (at n=254 they
    # reach ~900, off by ~7e-12), so the bound grows past n=73 in proportion
    grad_tol = 1e-12 * max(1.0, n / 73) ** 2
    for t, ref in zip((h, w_prod, w_diff, b), ref_grads):
        assert t.grad.shape == ref.shape
        assert np.abs(t.grad - ref).max() <= grad_tol


def test_contact_scores_read_rows_by_index():
    # scoring rows of h gives the bits of scoring h[rows] as a tensor of its
    # own, and the gradient of each listing of a row reaches that row of h
    rng = np.random.default_rng(31)
    h = Tensor(rng.normal(size=(9, 6)), requires_grad=True)
    w_prod, w_diff = (Tensor(rng.normal(size=(6, 1)), requires_grad=True) for _ in range(2))
    b = Tensor(rng.normal(size=1), requires_grad=True)
    g = Tensor(rng.normal(size=(6, 6)))
    rows = np.array([2, 3, 5, 3, 7, 8])
    grads = []
    for forward in (lambda: nm.contact_scores(h, rows, w_prod, w_diff, b),
                    lambda: nm.contact_scores(select_rows(h, rows), np.arange(6), w_prod,
                                              w_diff, b)):
        for t in (h, w_prod, w_diff, b):
            t.grad = None
        with Tape() as tape:
            out = forward()
            loss = sum_all(mul(out, g))
        nm.backward(tape, loss)
        grads.append([out.data] + [t.grad for t in (h, w_prod, w_diff, b)])
    for got, want in zip(*grads):
        assert got.tobytes() == want.tobytes()
    assert not grads[0][1][[0, 1, 4, 6]].any()


def test_contact_scores_rejects_bad_shapes():
    h, w, b = Tensor(np.zeros((5, 4))), Tensor(np.zeros((4, 1))), Tensor(np.zeros(1))
    rows = np.arange(5)
    with pytest.raises(ShapeError, match="2-d h"):
        nm.contact_scores(Tensor(np.zeros(4)), rows, w, w, b)
    with pytest.raises(ShapeError, match="row out of range"):
        nm.contact_scores(h, [1, 5], w, w, b)
    with pytest.raises(ShapeError, match="width 4"):
        nm.contact_scores(h, rows, Tensor(np.zeros((4,))), w, b)
    with pytest.raises(ShapeError, match="width 4"):
        nm.contact_scores(h, rows, w, Tensor(np.zeros((5, 1))), b)
    with pytest.raises(ShapeError, match="width 4"):
        nm.contact_scores(h, rows, w, w, Tensor(np.zeros(())))


def test_normalisation_and_activation_gradients():
    g = Tensor(np.random.default_rng(26).normal(1.0, 0.1, 4))
    b = Tensor(np.random.default_rng(27).normal(0.0, 0.1, 4))
    _check(lambda t: layernorm(t, g, b), _rand((3, 4), 28))
    x = Tensor(np.random.default_rng(29).normal(0, 1, (3, 4)))

    def wrt_gain(t):
        return _as_scalar(layernorm(x, t, b))

    gain = Tensor(np.random.default_rng(30).normal(1.0, 0.1, 4), requires_grad=True)
    assert finite_diff_check(wrt_gain, gain) < FD_TOL
    _check(lambda t: gelu(t), _rand((3, 4), 31))


def test_affine_gradients_all_arguments():
    w = Tensor(np.random.default_rng(33).normal(0, 1, (4, 3)))
    b = Tensor(np.random.default_rng(34).normal(0, 1, 3))
    _check(lambda t: affine(t, w, b), _rand((5, 4), 35))
    _check(lambda t: affine(t, w, b), _rand((4,), 36))  # vector input
    x = Tensor(np.random.default_rng(37).normal(0, 1, (5, 4)))
    _check(lambda t: affine(x, t, b), _rand((4, 3), 38))
    _check(lambda t: affine(x, w, t), _rand((3,), 39))


def _kernel_cases():
    """(f, inputs, g) per in-place kernel, as pytest params."""
    rng = np.random.default_rng(60)

    def rand(*shape):
        return Tensor(rng.normal(0.0, 1.0, shape), requires_grad=True)

    weights = [rand(*shape) for shape in [(8, 8), (8,)] * 4 + [(8,), (8,), (8, 32), (32,),
                                                               (32, 8), (8,), (8,), (8,)]]
    cases = {}
    # heads=1 makes a head split a view of its array and heads=8 gives dh=1;
    # the heads=2 ids keep their "additive" from when a second mask mode existed
    for heads, suffix in ((2, "additive"), (1, "h1"), (8, "h8")):
        q, k, v, g_att = _attention_inputs(m=2, n=9, d=8)
        x, *_, g_layer = _attention_inputs(m=2, n=9, d=8)
        cases[f"attention-{suffix}"] = (
            lambda *qkv, heads=heads: multihead_attention(*qkv, heads, 2), (q, k, v), g_att)
        cases[f"encoder-layer-{suffix}"] = (
            lambda x, *w, heads=heads: nm.encoder_layer(x, w, heads, 2), (x, *weights), g_layer)
    cases |= {
        "encoder-input": (lambda *t: nm.encoder_input(*t[:3], [3, 7, 3, 0], t[3:]),
                          (rand(9, 5), rand(1, 5), rand(6, 5), rand(5), rand(5)),
                          rng.normal(size=(6, 5))),
        "gelu": (gelu, (rand(6, 5),), rng.normal(size=(6, 5))),
        "gelu-0d": (gelu, (rand(),), rng.normal(size=())),
        "layernorm": (layernorm, (rand(6, 5), rand(5), rand(5)), rng.normal(size=(6, 5))),
        "affine": (affine, (rand(6, 5), rand(5, 3), rand(3)), rng.normal(size=(6, 3))),
        "affine-vector": (affine, (rand(5), rand(5, 3), rand(3)), rng.normal(size=3)),
    }
    return [pytest.param(*case, id=name) for name, case in cases.items()]


@pytest.mark.parametrize("f, inputs, g", _kernel_cases())
def test_kernels_write_only_into_their_own_arrays(f, inputs, g):
    # in-place kernels must leave their inputs, the upstream gradient and
    # their own output as they were
    before = [t.data.tobytes() for t in inputs]
    g_before = g.tobytes()
    with Tape():
        out = f(*inputs)
    out_before = out.data.tobytes()
    out._backprop(g)
    assert [t.data.tobytes() for t in inputs] == before
    assert g.tobytes() == g_before
    assert out.data.tobytes() == out_before
    assert all(t.grad is not None and not np.shares_memory(t.grad, g) for t in inputs)


@pytest.mark.parametrize("layout", ["C", "F"])
@pytest.mark.parametrize("d", [1, 5])
def test_encoder_input_table_gradients_match_a_scatter_add(d, layout):
    # position and segment gradients skip np.add.at but keep its bits for
    # any width and memory layout of the incoming gradient, signed zeros too
    rng = np.random.default_rng(11)
    tok, seg, pos = (Tensor(rng.normal(size=(rows, d)), requires_grad=True)
                     for rows in (9, 2, 40))
    ids = rng.integers(9, size=37)
    g = rng.normal(size=(37, d)) * 10.0 ** rng.integers(-6, 6, size=(37, d))
    g[rng.random(g.shape) < 0.3] = -0.0
    g[:, 0] = -0.0
    g = np.asarray(g, order=layout)
    with Tape():
        out = nm.encoder_input(tok, seg, pos, ids)
    out._backprop(g)
    want_pos, want_seg = np.zeros_like(pos.data), np.zeros_like(seg.data)
    np.add.at(want_pos, np.arange(ids.size), g)
    np.add.at(want_seg, np.zeros(ids.size, dtype=np.intp), g)
    assert pos.grad.tobytes() == want_pos.tobytes()
    assert seg.grad.tobytes() == want_seg.tobytes()


@pytest.mark.parametrize("kernel, reference, shapes", [
    pytest.param(gelu, reference_gelu, [()], id="gelu-0d"),
    pytest.param(gelu, reference_gelu, [(7,)], id="gelu-1d"),
    pytest.param(gelu, reference_gelu, [(9, 16)], id="gelu-2d"),
    pytest.param(layernorm, reference_layernorm, [(11, 16), (16,), (16,)], id="layernorm"),
    pytest.param(affine, reference_affine, [(9, 16), (16, 5), (5,)], id="affine"),
])
def test_kernel_is_bitwise_the_plain_formula(kernel, reference, shapes):
    rng = np.random.default_rng(61)
    inputs = [Tensor(rng.normal(0.3, 2.0, s), requires_grad=True) for s in shapes]
    with Tape():
        out = kernel(*inputs)
    g = rng.normal(size=out.shape)
    out._backprop(g)
    ref_out, *ref_grads = reference(*(t.data for t in inputs), g)
    assert np.array_equal(out.data, ref_out)
    for t, ref in zip(inputs, ref_grads):
        assert np.array_equal(t.grad, ref)


def test_bce_gradient():
    y = (np.random.default_rng(40).random((4, 2)) > 0.5).astype(np.float64)
    _check(lambda t: bce_with_logits_mean(t, y), _rand((4, 2), 41))


def test_bce_gradient_does_not_overflow_on_large_logits():
    rng = np.random.default_rng(42)
    z = np.concatenate([[800.0, -800.0, 710.0, -710.0, 0.0, -0.0, 1e308, -1e308],
                        rng.normal(0.0, 30.0, 40)])
    y = (rng.random(z.shape) > 0.5).astype(np.float64)
    x = Tensor(z, requires_grad=True)
    with np.errstate(over="raise", invalid="raise"), Tape() as tape:
        nm.backward(tape, bce_with_logits_mean(x, y))
    # the two-branch formula it replaces, keeping only the branch it selected
    with np.errstate(over="ignore", invalid="ignore"):
        sig = np.where(z >= 0, 1.0 / (1.0 + np.exp(-z)), np.exp(z) / (1.0 + np.exp(z)))
    want = 1.0 * (sig - y) / z.size
    assert np.array_equal(x.grad.view(np.int64), want.view(np.int64))


def test_finite_diff_exact_on_linear_sum():
    # sum is linear, so central differences are exact in floating point here
    x = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
    err = finite_diff_check(lambda t: sum_all(t), x, eps=0.5)
    assert err == 0.0


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(42)
    for _ in range(20):
        x = Tensor(rng.normal(0, 5, (4, 7)))
        lp = log_softmax_rows(x)
        assert np.allclose(np.exp(lp.data).sum(axis=1), 1.0, atol=1e-12)


def test_mask_penalty_underflows_to_zero():
    # row 0 may attend only to itself, so its output is exactly its own
    # value row; at scores of ordinary size the oracle's finite penalty
    # underflows to weights of exactly 0.0 and gives the same bits
    rng = np.random.default_rng(43)
    q, k, v = (Tensor(rng.normal(0, 1, (3, 4))) for _ in range(3))
    out = multihead_attention(q, k, v, 2, 1)
    assert np.array_equal(out.data[0], v.data[0])
    ref, *_ = reference_attention(q.data, k.data, v.data, 2, 1, np.zeros((3, 4)))
    assert out.data.tobytes() == ref.tobytes()


def test_backward_determinism():
    def run():
        x = Tensor(np.arange(12, dtype=np.float64).reshape(3, 4) / 7.0, requires_grad=True)
        w = Tensor(np.ones((4, 2)), requires_grad=True)
        tape = Tape()
        with tape:
            y = sum_all(gelu(affine(log_softmax_rows(x), w, Tensor(np.zeros(2)))))
        nm.backward(tape, y)
        return x.grad.copy(), w.grad.copy()

    g1, h1 = run()
    g2, h2 = run()
    assert np.array_equal(g1, g2) and np.array_equal(h1, h2)


def test_backward_frees_intermediate_gradients():
    # an encoder forward with prompts and a loss, swept once without
    # freeing (the plain reverse loop) and once by backward
    cfg = ModelConfig(d=8, layers=2, heads=2, max_len=10, prompt_names=("Seq", "IC"))
    model = ProteinEncoder(cfg, seed=3)
    seq = T.encode("ACDWK", 10, "f")
    tape = Tape()
    with tape:
        out = model.encode(seq, ("Seq", "IC"))
        loss = sum_all(mul(out.h, _probe(out.h.shape, 4)))
    leaves = {n: p for n, p in model.parameters().items() if not n.startswith("head.")}
    loss.grad = np.ones(())
    for node in reversed(tape.nodes):
        if node.grad is not None:
            node._backprop(node.grad)
    assert all(node.grad is not None for node in tape.nodes)
    want = {name: p.grad.copy() for name, p in leaves.items()}
    for node in tape.nodes:
        node.grad = None
    for p in leaves.values():
        p.grad = None
    nm.backward(tape, loss)
    assert all(node.grad is None for node in tape.nodes)
    for name, p in leaves.items():
        assert np.array_equal(p.grad, want[name]), name


def test_backward_rejects_non_scalar_loss():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    tape = Tape()
    with tape:
        y = nm.add(x, x)
    with pytest.raises(ContractError, match="scalar"):
        nm.backward(tape, y)


def test_backward_rejects_loss_off_tape():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with Tape():
        _ = nm.add(x, x)
    other = Tape()
    with other:
        y = sum_all(nm.add(x, x))
    stray = Tape()
    with pytest.raises(ContractError, match="not recorded"):
        nm.backward(stray, y)


def test_a_second_tape_is_refused_while_one_records():
    rng = np.random.default_rng(13)
    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    b = Tensor(rng.normal(size=2), requires_grad=True)
    g = Tensor(rng.normal(size=(3, 2)))

    def run(nested: bool):
        x.grad = w.grad = b.grad = None
        with Tape() as tape:
            h = affine(x, w, b)
            if nested:
                with pytest.raises(ContractError, match="already recording"):
                    with Tape():
                        pass
            loss = sum_all(mul(gelu(h), g))
        nm.backward(tape, loss)
        return len(tape.nodes), [t.grad.tobytes() for t in (x, w, b)]

    assert run(nested=True) == run(nested=False)
    # the tape closed, so a new one records again
    with Tape() as tape:
        nm.add(x, x)
    assert len(tape.nodes) == 1


def test_shape_errors_carry_both_shapes():
    a = Tensor(np.ones((2, 3)))
    b = Tensor(np.ones((3, 2)))
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(3, 2\)"):
        nm.add(a, b)
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
        affine(a, Tensor(np.ones((2, 3))), Tensor(np.ones(3)))
    with pytest.raises(ShapeError):
        select_rows(a, [0, 2])
    with pytest.raises(ShapeError):
        layernorm(a, Tensor(np.ones(4)), Tensor(np.ones(3)))


def test_non_finite_values_rejected():
    with pytest.raises(NumericsError):
        Tensor(np.array([1.0, np.inf]))
    big = Tensor(np.array([[1e308]]), requires_grad=True)
    with np.errstate(over="ignore"):
        with pytest.raises(NumericsError):
            mul(big, big)


def test_finite_diff_rejects_nondeterministic_function():
    calls = []

    def f(t):
        calls.append(1)
        return scale(sum_all(t), float(len(calls)))

    with pytest.raises(OracleError):
        finite_diff_check(f, Tensor(np.ones(3), requires_grad=True))


def test_scalar_results_are_zero_dim():
    y = sum_all(Tensor(np.ones((2, 3))))
    assert y.data.shape == ()
    assert y.data.item() == 6.0


def _erf_sample() -> np.ndarray:
    """Seeded erf arguments of both signs: both of Cephes's erf branches
    (|u| <= 1 and > 1), the +-1 edge, signed zeros, subnormals and +-30,
    where erf saturates."""
    rng = np.random.default_rng(42)
    special = np.array([0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-300,
                        *np.nextafter(1.0, [0.0, 2.0]), 1.0, 30.0])
    u = np.concatenate([rng.uniform(0.0, 1.0, 100_000), rng.uniform(1.0, 6.0, 100_000),
                        rng.normal(0.0, 0.11, 50_000) ** 2, special])
    return np.concatenate([u, -u])


def test_erf_is_scipys_and_gelu_keeps_its_bits():
    # _erf runs Cephes's erf, scipy.special.erf's algorithm, in numpy: the
    # |u| <= 1 rational gives scipy's bits; beyond, np.exp stands in for
    # libm's exp, so a result may sit one ulp of 1 (2^-53) away
    from scipy.special import erf

    def check(v):
        got = nm._erf(v.copy())
        inner = np.abs(v) <= 1.0
        assert got[inner].tobytes() == erf(v[inner]).tobytes()
        assert np.max(np.abs(got[~inner] - erf(v[~inner]))) <= 2.0 ** -53
        return got

    u = _erf_sample()
    got = check(u)  # +-30 in the sample: the whole array is clamped to +-6
    check(u[np.abs(u) <= 6.0])  # none past 6: only the |u| > 1 elements branch
    # a dense grid through +-1, with the 2,000 floats just below 1
    grid = np.linspace(-1.25, 1.25, 500_001)
    edge = np.nextafter(1.0, 0.0) - np.arange(2_000) * 2.0 ** -53
    check(np.concatenate([grid, edge, -edge]))
    # odd bit for bit, signed zeros included
    assert got.tobytes() == (-nm._erf(-u)).tobytes()
    # saturated, with no overflow warning (pytest turns one into an error)
    big = np.array([6.0, 30.0, 1e300, np.finfo(float).max])
    assert nm._erf(np.concatenate([big, -big])).tolist() == [1.0] * 4 + [-1.0] * 4

    x = u * 1.5
    out, cdf = nm._gelu_forward(x)
    assert cdf.tobytes() == (0.5 * (1.0 + nm._erf(x / np.sqrt(2.0)))).tobytes()
    assert out.tobytes() == (x * cdf).tobytes()
    out0, cdf0 = nm._gelu_forward(np.array(-0.75))
    assert out0.shape == cdf0.shape == () and out0 == -0.75 * cdf0


def test_gelu_matches_normal_cdf_oracle():
    from scipy.stats import norm

    x = np.linspace(-4, 4, 33)
    y = gelu(Tensor(x))
    assert np.allclose(y.data, x * norm.cdf(x), atol=1e-12)
    assert gelu(Tensor(np.zeros(3))).data.tolist() == [0.0, 0.0, 0.0]


def test_grad_accumulates_across_backward_calls_on_leaves():
    x = Tensor(np.ones(3), requires_grad=True)
    tape = Tape()
    with tape:
        y = sum_all(x)
        z = scale(sum_all(x), 2.0)
    nm.backward(tape, y)
    first = x.grad.copy()
    nm.backward(tape, z)
    # leaves accumulate: callers are responsible for zeroing between passes
    assert np.array_equal(x.grad, first + 2.0)
