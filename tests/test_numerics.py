"""Gradient and shape contracts of the tensor primitives.

Every differentiable primitive is checked against central finite
differences through a generic functional (contraction with a fixed random
matrix) so no true gradient is accidentally zero.
"""

import ast
import inspect
from pathlib import Path

import numpy as np
import pytest

from protprompt import numerics as nm
from protprompt import tokenizer as T
from protprompt.errors import ContractError, NumericsError, ShapeError
from protprompt.model import INIT_STD, ModelConfig, ProteinEncoder
from protprompt.numerics import Tape, Tensor

from conftest import (OracleError, affine, bce_with_logits_mean, concat_rows,
                      embedding_lookup, finite_diff_check, gelu, layernorm, log_softmax_rows,
                      mean_over_rows, mul, multihead_attention, penalty_mask, pick,
                      reference_affine, reference_attention, reference_contact,
                      reference_gelu, reference_layernorm, reshape, scale, sum_all)

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
    _check(lambda t: nm.select_rows(t, np.arange(1, 3)), _rand((4, 3), 17))


def test_gather_gradients():
    # duplicate indices must accumulate
    _check(lambda t: nm.select_rows(t, [0, 2, 2, 1]), _rand((3, 4), 19))
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
            collect = []
            tape = Tape()
            with tape:
                out = multihead_attention(q, k, v, heads, m, collect)
                loss = sum_all(mul(out, Tensor(g)))
            assert len(tape.nodes) == 3  # attention, mul, sum_all: one node for all heads
            nm.backward(tape, loss)
            ref_out, dq, dk, dv = reference_attention(q.data, k.data, v.data, heads,
                                                      penalty_mask(m, n), g)
            assert np.array_equal(out.data, ref_out), (m, n)
            for t, ref in ((q, dq), (k, dk), (v, dv)):
                assert np.abs(t.grad - ref).max() <= 1e-12, (m, n)
            (maps,) = collect  # one list of per-head maps per call
            assert len(maps) == heads and all(w.shape == (m + n, m + n) for w in maps)
            for w in maps:  # one-way flow: a prompt row is zero off its diagonal
                assert np.array_equal(w[:m] != 0.0, np.eye(m, m + n, dtype=bool)), (m, n)


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
    collect = []
    out = multihead_attention(q, k, v, 1, 1, collect)
    assert out.data[0].tobytes() == v.data[0].tobytes()
    assert collect[0][0][0].tolist() == [1.0, 0.0, 0.0, 0.0]


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
        out = nm.contact_scores(h, w_prod, w_diff, b)
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


def test_contact_scores_rejects_bad_shapes():
    h, w, b = Tensor(np.zeros((5, 4))), Tensor(np.zeros((4, 1))), Tensor(np.zeros(1))
    with pytest.raises(ShapeError, match="2-d h"):
        nm.contact_scores(Tensor(np.zeros(4)), w, w, b)
    with pytest.raises(ShapeError, match="width 4"):
        nm.contact_scores(h, Tensor(np.zeros((4,))), w, b)
    with pytest.raises(ShapeError, match="width 4"):
        nm.contact_scores(h, w, Tensor(np.zeros((5, 1))), b)
    with pytest.raises(ShapeError, match="width 4"):
        nm.contact_scores(h, w, w, Tensor(np.zeros(())))


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
    """(f, inputs, g, collect) per in-place kernel, as pytest params."""
    rng = np.random.default_rng(60)

    def rand(*shape):
        return Tensor(rng.normal(0.0, 1.0, shape), requires_grad=True)

    q, k, v, g_att = _attention_inputs(m=2, n=9, d=8)
    x, *_, g_layer = _attention_inputs(m=2, n=9, d=8)
    weights = [rand(*shape) for shape in [(8, 8), (8,)] * 4 + [(8,), (8,), (8, 32), (32,),
                                                               (32, 8), (8,), (8,), (8,)]]
    att_maps, layer_maps = [], []
    # the ids keep their "additive" from when a second mask mode existed
    cases = {
        "attention-additive": (lambda *qkv: multihead_attention(*qkv, 2, 2, att_maps),
                               (q, k, v), g_att, att_maps),
        "encoder-layer-additive": (lambda x, *w: nm.encoder_layer(x, w, 2, 2, layer_maps),
                                   (x, *weights), g_layer, layer_maps),
        "encoder-input": (lambda *t: nm.encoder_input(*t[:3], [3, 7, 3, 0], t[3:]),
                          (rand(9, 5), rand(1, 5), rand(6, 5), rand(5), rand(5)),
                          rng.normal(size=(6, 5)), []),
        "gelu": (gelu, (rand(6, 5),), rng.normal(size=(6, 5)), []),
        "gelu-0d": (gelu, (rand(),), rng.normal(size=()), []),
        "layernorm": (layernorm, (rand(6, 5), rand(5), rand(5)), rng.normal(size=(6, 5)), []),
        "affine": (affine, (rand(6, 5), rand(5, 3), rand(3)), rng.normal(size=(6, 3)), []),
        "affine-vector": (affine, (rand(5), rand(5, 3), rand(3)), rng.normal(size=3), []),
    }
    return [pytest.param(*case, id=name) for name, case in cases.items()]


@pytest.mark.parametrize("f, inputs, g, collect", _kernel_cases())
def test_kernels_write_only_into_their_own_arrays(f, inputs, g, collect):
    # in-place kernels must leave their inputs, the upstream gradient, their
    # own output and the maps handed to collect as they were
    before = [t.data.tobytes() for t in inputs]
    g_before = g.tobytes()
    with Tape():
        out = f(*inputs)
    out_before = out.data.tobytes()
    maps_before = [w.tobytes() for maps in collect for w in maps]
    out._backprop(g)
    assert [t.data.tobytes() for t in inputs] == before
    assert g.tobytes() == g_before
    assert out.data.tobytes() == out_before
    assert [w.tobytes() for maps in collect for w in maps] == maps_before
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
    # row 0 may attend only to itself: every head puts weight exactly 1.0
    # there, so its output is exactly its own value row; at scores of
    # ordinary size these are the bits the oracle's finite penalty gives
    rng = np.random.default_rng(43)
    q, k, v = (Tensor(rng.normal(0, 1, (3, 4))) for _ in range(3))
    collect = []
    out = multihead_attention(q, k, v, 2, 1, collect)
    for w in collect[0]:
        assert w[0, 0] == 1.0
        assert w[0, 1] == 0.0 and w[0, 2] == 0.0
    assert np.array_equal(out.data[0], v.data[0])
    ref, *_ = reference_attention(q.data, k.data, v.data, 2, penalty_mask(1, 2),
                                  np.zeros((3, 4)))
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
        p.zero_grad()
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


def test_shape_errors_carry_both_shapes():
    a = Tensor(np.ones((2, 3)))
    b = Tensor(np.ones((3, 2)))
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(3, 2\)"):
        nm.add(a, b)
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
        affine(a, Tensor(np.ones((2, 3))), Tensor(np.ones(3)))
    with pytest.raises(ShapeError):
        nm.select_rows(a, [0, 2])
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
    assert y.item() == 6.0


def _erf_sample() -> np.ndarray:
    """Seeded erf arguments of both signs: both of scipy's erf branches
    (|u| <= 1 and > 1), the +-1 edge, signed zeros, subnormals and +-30,
    where erf saturates."""
    rng = np.random.default_rng(42)
    special = np.array([0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-300,
                        *np.nextafter(1.0, [0.0, 2.0]), 1.0, 30.0])
    u = np.concatenate([rng.uniform(0.0, 1.0, 100_000), rng.uniform(1.0, 6.0, 100_000),
                        rng.normal(0.0, 0.11, 50_000) ** 2, special])
    return np.concatenate([u, -u])


def test_gelu_folds_erf_sign_without_moving_bits():
    # _gelu_forward takes erf of |x / sqrt 2| and puts x's sign back, which
    # keeps every GELU bit only while scipy's erf is odd bit for bit
    from scipy.special import erf

    x = _erf_sample()
    assert erf(x).tobytes() == np.copysign(erf(np.abs(x)), x).tobytes(), (
        "scipy.special.erf is not bitwise odd here: _gelu_forward's fold "
        "erf(u) = copysign(erf(|u|), u) would move GELU bits")
    cdf = 0.5 * (1.0 + erf(x / np.sqrt(2.0)))
    out, got_cdf = nm._gelu_forward(x)
    assert got_cdf.tobytes() == cdf.tobytes()
    assert out.tobytes() == (x * cdf).tobytes(), (
        "_gelu_forward differs from x * (0.5 * (1 + erf(x / sqrt 2))): the sign "
        "fold relies on scipy.special.erf being odd bit for bit")


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
    x.zero_grad()
    assert x.grad is None


# public numerics names that no other src/ module uses, each with why it stays
UNCALLED = {"add": "perfbench/test_perfbench.py asserts that the tracer wraps it"}


def test_every_public_numerics_name_has_a_src_caller():
    # a primitive whose last src/ caller went moves to tests/conftest.py as an
    # oracle; this fails the suite when one is left behind
    public = {name for name, obj in vars(nm).items() if not name.startswith("_")
              and (inspect.isfunction(obj) or inspect.isclass(obj))
              and obj.__module__ == nm.__name__}
    used = set()
    for path in Path(nm.__file__).parent.glob("*.py"):
        if path.name == "numerics.py":
            continue
        tree = ast.parse(path.read_text())
        aliases = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "numerics":
                used.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module is None:
                aliases.update(alias.asname or alias.name for alias in node.names
                               if alias.name == "numerics")
        used.update(node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name) and node.value.id in aliases)
    assert sorted(public - used) == sorted(UNCALLED)
