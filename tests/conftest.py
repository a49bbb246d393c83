"""Shared test helpers."""

import math

import numpy as np
from scipy.special import erf

from protprompt import numerics as nm
from protprompt import objectives as O
from protprompt import tokenizer as T
from protprompt.errors import ContractError
from protprompt.model import build_mask
from protprompt.numerics import MASK_NEG, Tape, Tensor


class OracleError(Exception):
    """A test oracle detected an inconsistency (e.g. non-deterministic f)."""


def finite_diff_check(f, x, eps=1e-5):
    """Compare the tape gradient of scalar f(x) against central differences.

    f is evaluated twice up front; any bitwise mismatch means f is not
    deterministic and raises OracleError. x.data is perturbed in place one
    element at a time (and restored), so f may either use its argument or
    close over x. Returns the worst relative error, with the denominator
    floored at 1e-8.
    """
    if eps <= 0:
        raise ContractError("finite_diff_check needs eps > 0")
    x.requires_grad = True
    tape = Tape()
    with tape:
        y = f(x)
    if y.data.size != 1:
        raise ContractError(f"f must return a scalar, got shape {y.shape}")
    y2 = f(x)
    if not np.array_equal(y.data, y2.data):
        raise OracleError("f is not deterministic: double evaluation mismatch")
    x.grad = None
    nm.backward(tape, y)
    g = x.grad if x.grad is not None else np.zeros_like(x.data)

    flat = x.data.reshape(-1)
    fd = np.zeros(flat.size)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fa = float(f(x).data.reshape(()))
        flat[i] = orig - eps
        fb = float(f(x).data.reshape(()))
        flat[i] = orig
        fd[i] = (fa - fb) / (2.0 * eps)
    fd = fd.reshape(x.shape)

    denom = np.maximum(np.maximum(np.abs(g), np.abs(fd)), 1e-8)
    return float((np.abs(g - fd) / denom).max())


def reference_routed_step(model, optimizer, mlm_batch, task_batches, policy,
                          lambda_weight, alpha, mlm_reduction="sum"):
    """The per-source router train_step ran before it swept backward once.

    Records every source's forward with all prompts live, runs one backward
    sweep per loss source, scales each by its coefficient (1 for the
    conservation loss, lambda * alpha_t for task t), drops a prompt's share
    when its route excludes the source, and hands the sums to Adam. Returns
    those gradients and each source's loss value.
    """
    tape = Tape()
    with tape:
        losses = {}
        if mlm_batch is not None:
            losses[O.CONSERVE] = O._forward_mlm(model, mlm_batch, mlm_reduction)
        for batch in task_batches:
            losses[batch.name] = O._forward_pairs(model, batch)
    routed = {}
    for source, loss_t in losses.items():
        for p in optimizer.params.values():
            p.grad = None
        nm.backward(tape, loss_t)
        c = 1.0 if source == O.CONSERVE else lambda_weight * alpha.get(source, 1.0)
        for name, p in optimizer.params.items():
            prompt = name.removeprefix("prompt.")
            if p.grad is None or (prompt != name and source not in policy.prompt_routes[prompt]):
                continue
            contrib = c * p.grad
            routed[name] = contrib if name not in routed else routed[name] + contrib
    optimizer.step(routed)
    return routed, {source: float(t.data) for source, t in losses.items()}


def reference_encoder_layer(layer, x, mask, mask_mode, collect=None):
    """The per-op chain EncoderLayer.forward ran before the layer had a node
    of its own: twelve single-op tape nodes (q/k/v affines, attention, the
    output affine, two residual adds, two layernorms, affine-gelu-affine)."""
    (wq, bq, wk, bk, wv, bv, wo, bo,
     ln1_gain, ln1_bias, ff_w1, ff_b1, ff_w2, ff_b2, ln2_gain, ln2_bias) = layer.weights
    q = nm.affine(x, wq, bq)
    k = nm.affine(x, wk, bk)
    v = nm.affine(x, wv, bv)
    heads_out = nm.multihead_attention(q, k, v, layer.heads, mask, mask_mode, collect)
    attn_out = nm.affine(heads_out, wo, bo)
    x = nm.layernorm(nm.add(x, attn_out), ln1_gain, ln1_bias)
    ff = nm.affine(nm.gelu(nm.affine(x, ff_w1, ff_b1)), ff_w2, ff_b2)
    return nm.layernorm(nm.add(x, ff), ln2_gain, ln2_bias)


def reference_embed(model, seq, prompt_names=(), frozen=frozenset()):
    """The per-op embed-then-attach_prompts chain: three lookups, two adds,
    then one reshape per prompt and a concat; frozen prompts enter as
    constant copies."""
    n = seq.ids.size
    tok = nm.embedding_lookup(model.tok_table, seq.ids)
    seg = nm.embedding_lookup(model.seg_table, np.zeros(n, dtype=np.intp))
    pos = nm.embedding_lookup(model.pos_table, np.arange(n, dtype=np.intp))
    x_in = nm.add(nm.add(tok, seg), pos)
    if not prompt_names:
        return x_in
    rows = []
    for name in prompt_names:
        vec = model.prompts.get(name)
        if name in frozen:
            vec = Tensor(vec.data)
        rows.append(nm.reshape(vec, (1, model.config.d)))
    return nm.concat_rows(rows + [x_in])


def reference_encode(model, seq, prompt_names=(), frozen=frozenset()):
    """ProteinEncoder.encode on the per-op chain: (h, collected maps)."""
    mode = model.config.mask_mode
    allowed = build_mask(len(prompt_names), seq.length)
    mask = allowed if mode == "literal" else np.where(allowed > 0, 0.0, MASK_NEG)
    collect = []
    x = reference_embed(model, seq, prompt_names, frozen)
    for layer in model.layers:
        x = reference_encoder_layer(layer, x, mask, mode, collect)
    return x, collect


def reference_forward(model, ids):
    """Plain numpy rendition of the no-prompt encoder forward pass.

    Mirrors the model's operation order so results can be compared
    bitwise, but shares no code with the library.
    """
    p = {k: v.data for k, v in model.parameters().items()}
    n = ids.size
    x = p["embed.tok"][ids] + p["embed.seg"][np.zeros(n, dtype=np.intp)]
    x = x + p["embed.pos"][np.arange(n)]
    keep = (ids != T.PAD_ID).astype(np.float64)
    penalty = np.where(np.ones((n, n)) * keep[None, :] > 0, 0.0, -1.0e9)
    d = model.config.d
    dh = d // model.config.heads
    for li in range(model.config.layers):
        pre = f"layer{li}"
        q = x @ p[f"{pre}.attn.wq"] + p[f"{pre}.attn.bq"]
        k = x @ p[f"{pre}.attn.wk"] + p[f"{pre}.attn.bk"]
        v = x @ p[f"{pre}.attn.wv"] + p[f"{pre}.attn.bv"]
        outs = []
        for h in range(model.config.heads):
            sl = slice(h * dh, (h + 1) * dh)
            s = (q[:, sl] @ k[:, sl].T.copy()) * (1.0 / math.sqrt(dh)) + penalty
            e = np.exp(s - s.max(axis=1, keepdims=True))
            outs.append((e / e.sum(axis=1, keepdims=True)) @ v[:, sl])
        attn = np.concatenate(outs, axis=1) @ p[f"{pre}.attn.wo"] + p[f"{pre}.attn.bo"]

        def ln(z, gain, bias):
            mu = z.mean(axis=1, keepdims=True)
            var = ((z - mu) ** 2).mean(axis=1, keepdims=True)
            return (z - mu) * (1.0 / np.sqrt(var + 1e-5)) * gain + bias

        x = ln(x + attn, p[f"{pre}.ln1.gain"], p[f"{pre}.ln1.bias"])
        a1 = x @ p[f"{pre}.ff.w1"] + p[f"{pre}.ff.b1"]
        g = a1 * (0.5 * (1.0 + erf(a1 / np.sqrt(2.0))))
        x = ln(x + (g @ p[f"{pre}.ff.w2"] + p[f"{pre}.ff.b2"]),
               p[f"{pre}.ln2.gain"], p[f"{pre}.ln2.bias"])
    return x


def reference_attention(q, k, v, heads, mask, mask_mode, g):
    """Plain numpy, one-head-at-a-time multi-head masked attention.

    Returns the (n, d) output and the gradients of sum(out * g) with
    respect to q, k and v, each head computed and differentiated as its
    own chain of 2-d operations in the model's operation order.
    """
    n, d = q.shape
    dh = d // heads
    c = 1.0 / math.sqrt(dh)
    out, dq, dk, dv = (np.zeros((n, d)) for _ in range(4))
    for h in range(heads):
        sl = slice(h * dh, (h + 1) * dh)
        qh, kh, vh = q[:, sl].copy(), k[:, sl].copy(), v[:, sl].copy()
        s = (qh @ kh.T.copy()) * c
        if mask_mode == "additive":
            s = s + mask
        e = np.exp(s - s.max(axis=1, keepdims=True))
        y = e / e.sum(axis=1, keepdims=True)
        w = y * mask if mask_mode == "literal" else y
        out[:, sl] = w @ vh
        gh = g[:, sl].copy()
        dv[:, sl] = w.T @ gh
        dw = gh @ vh.T
        if mask_mode == "literal":
            dw = dw * mask
        ds = (y * (dw - (dw * y).sum(axis=1, keepdims=True))) * c
        dq[:, sl] = ds @ kh
        dk[:, sl] = (qh.T @ ds).T
    return out, dq, dk, dv


def reference_contact(h, w_prod, w_diff, b, g):
    """Plain numpy rendition of the per-pair contact head.

    Gathers the (n*n, d) feature rows [h_i * h_j, |h_i - h_j|] for every
    ordered pair, maps them to one logit each and reshapes to (n, n), as the
    head did before it had a primitive of its own. Returns the logits and
    the gradients of sum(logits * g) with respect to h, w_prod, w_diff and b.
    """
    n, d = h.shape
    ii, jj = np.repeat(np.arange(n), n), np.tile(np.arange(n), n)
    hi, hj = h[ii], h[jj]
    logits = (((hi * hj) @ w_prod + b) + np.abs(hi - hj) @ w_diff).reshape(n, n)
    gcol = g.reshape(-1, 1)
    sign = np.sign(hi - hj)
    dh = np.zeros((n, d))
    np.add.at(dh, ii, gcol * w_prod.T * hj + gcol * w_diff.T * sign)
    np.add.at(dh, jj, gcol * w_prod.T * hi - gcol * w_diff.T * sign)
    return (logits, dh, (hi * hj).T @ gcol, np.abs(hi - hj).T @ gcol,
            np.array([gcol.sum()]))


def reference_gelu(x, g):
    """Plain-expression exact GELU and its gradient for upstream g."""
    cdf = 0.5 * (1.0 + erf(x / math.sqrt(2.0)))
    pdf = (1.0 / math.sqrt(2.0 * math.pi)) * np.exp(-0.5 * x * x)
    return x * cdf, g * (cdf + x * pdf)


def reference_layernorm(x, gain, bias, g, eps=1e-5):
    """Plain-expression row layernorm and its gradients (x, gain, bias)."""
    mu = x.mean(axis=1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=1, keepdims=True)
    invstd = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu) * invstd
    dxhat = g * gain
    m1 = dxhat.mean(axis=1, keepdims=True)
    m2 = (dxhat * xhat).mean(axis=1, keepdims=True)
    return (xhat * gain + bias, invstd * (dxhat - m1 - xhat * m2),
            (g * xhat).sum(axis=0), g.sum(axis=0))


def reference_affine(x, w, b, g):
    """Plain-expression x @ w + b for 2-d x and its gradients (x, w, b)."""
    return x @ w + b, g @ w.T, x.T @ g, g.sum(axis=0)
