"""Shared test helpers."""

import math

import numpy as np
from scipy.special import erf

from protprompt import data as D
from protprompt import numerics as nm
from protprompt import objectives as O
from protprompt import tokenizer as T
from protprompt.errors import ConfigError, ContractError, ShapeError
from protprompt.numerics import Tape, Tensor

# The oracle's additive penalty at disallowed logits: finite, yet large
# enough that exp() underflows to exactly 0.0 after the row-max subtraction
# for scores of ordinary size (not for any finite score).
MASK_NEG = -1.0e9


def build_mask(m, n):
    """The explicit binary (m+n) x (m+n) one-way mask for m prompts and n
    inputs, prompt rows first: the oracle the structural kernel is checked
    against."""
    size = m + n
    mat = np.ones((size, size), dtype=np.float64)
    if m:
        mat[:m, :] = 0.0
        mat[np.arange(m), np.arange(m)] = 1.0
    return mat


def penalty_mask(m, n):
    """The oracle's additive mask: 0 at allowed logits, MASK_NEG elsewhere."""
    return np.where(build_mask(m, n) > 0, 0.0, MASK_NEG)


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


def reference_routed_step(model, optimizer, mlm_batch, task_batches, routes,
                          lambda_weight, alpha, mlm_reduction="sum"):
    """The per-source router train_step ran before it swept backward once.

    routes maps each prompt name to the loss sources that may update it.
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
            if p.grad is None or (prompt != name and source not in routes[prompt]):
                continue
            contrib = c * p.grad
            routed[name] = contrib if name not in routed else routed[name] + contrib
    optimizer.step(routed)
    return routed, {source: float(t.data) for source, t in losses.items()}


# ---------------------------------------------------------------------------
# single-op nodes over numerics' kernels: the per-op chain that the fused
# encoder_input and encoder_layer nodes are checked against, and the
# primitives the gradient tests contract outputs with


def mul(a, b):
    """Elementwise (Hadamard) product; shapes must match exactly."""
    if a.shape != b.shape:
        raise ShapeError(f"mul shapes {a.shape} and {b.shape} differ")

    def backprop(g):
        nm._accum(a, g * b.data)
        nm._accum(b, g * a.data)

    return nm._node((a, b), a.data * b.data, backprop, "mul")


def select_rows(x, indices):
    """Gather rows x[indices]; duplicate indices accumulate gradient."""
    if x.data.ndim != 2:
        raise ShapeError(f"select_rows needs a 2-d tensor, got {x.shape}")
    idx = nm._checked_ids(indices, x.shape[0], "row")

    def backprop(g):
        nm._gather_backward(x, idx, g)

    return nm._node((x,), x.data[idx], backprop, "select_rows")


def reshape(x, shape):
    """Row-major reshape; element count must be preserved."""

    def backprop(g):
        nm._accum(x, g.reshape(x.shape))

    return nm._node((x,), x.data.reshape(shape).copy(), backprop, "reshape")


def sum_all(x):
    """Sum of all elements as a 0-d scalar."""

    def backprop(g):
        nm._accum(x, np.full(x.shape, float(g)))

    return nm._node((x,), np.asarray(x.data.sum()), backprop, "sum_all")


def mean_over_rows(x):
    """Column means of a 2-d tensor, (n,d) -> (d,). n must be >= 1."""
    if x.data.ndim != 2:
        raise ShapeError(f"mean_over_rows needs a 2-d tensor, got {x.shape}")
    n = x.shape[0]
    if n == 0:
        raise ContractError("mean_over_rows over zero rows")

    def backprop(g):
        nm._accum(x, np.broadcast_to(g / n, x.shape).copy())

    return nm._node((x,), x.data.mean(axis=0), backprop, "mean_over_rows")


def affine(x, w, b):
    """x @ w + b. x (n,k) or (k,), w (k,m), b (m,)."""
    vector_in = x.data.ndim == 1
    xd = x.data[None, :] if vector_in else x.data
    if xd.ndim != 2 or w.data.ndim != 2 or xd.shape[1] != w.shape[0]:
        raise ShapeError(f"affine shapes {x.shape} and {w.shape} do not align")
    if b.shape != (w.shape[1],):
        raise ShapeError(f"affine bias shape {b.shape} does not match {w.shape}")
    out_data = nm._affine_forward(xd, w.data, b.data)

    def backprop(g):
        gx = nm._affine_backward(g[None, :] if vector_in else g, xd, w, b, x.requires_grad)
        if gx is not None:
            nm._accum(x, gx[0] if vector_in else gx)

    return nm._node((x, w, b), out_data[0] if vector_in else out_data, backprop, "affine")


def multihead_attention(q, k, v, heads, m):
    """One-way attention of (n, d) q, k, v, the first m rows prompts, as one
    tape node; the kernels' docstrings give the forward and backward."""
    if q.data.ndim != 2 or k.shape != q.shape or v.shape != q.shape:
        raise ShapeError(f"attention got q/k/v {q.shape}/{k.shape}/{v.shape}")
    taped = nm._active_tape() is not None and any(t.requires_grad for t in (q, k, v))
    out_data, saved = nm._attention_forward(q.data, k.data, v.data, heads, m, taped)

    def backprop(g):
        dq, dk, dv = nm._attention_backward(g, out_data, saved)
        nm._accum(v, dv)
        nm._accum(q, dq)
        nm._accum(k, dk)

    return nm._node((q, k, v), out_data, backprop, "multihead_attention")


def layernorm(x, gain, bias):
    """Row-wise layer normalisation: x (n, d), gain (d,), bias (d,) -> (n, d)."""
    if x.data.ndim != 2:
        raise ShapeError(f"layernorm needs a 2-d tensor, got {x.shape}")
    d = x.shape[1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(
            f"layernorm gain/bias shapes {gain.shape}/{bias.shape} do not match width {d}"
        )
    out_data, xhat, invstd = nm._layernorm_forward(x.data, gain.data, bias.data)

    def backprop(g):
        nm._accum(x, nm._layernorm_backward(g, gain, bias, xhat, invstd))

    return nm._node((x, gain, bias), out_data, backprop, "layernorm")


def gelu(x):
    """Exact (erf-based) GELU, applied elementwise."""
    out_data, cdf = nm._gelu_forward(x.data)

    def backprop(g):
        nm._accum(x, nm._gelu_backward(g, x.data, cdf))

    return nm._node((x,), out_data, backprop, "gelu")


def embedding_lookup(table, ids):
    """Gather table rows by integer id; duplicate ids accumulate gradient."""
    if table.data.ndim != 2:
        raise ShapeError(f"embedding table must be 2-d, got {table.shape}")
    idx = nm._checked_ids(ids, table.shape[0])

    def backprop(g):
        nm._gather_backward(table, idx, g)

    return nm._node((table,), table.data[idx], backprop, "embedding_lookup")


def reference_encoder_layer(weights, heads, x, m):
    """The per-op chain an encoder layer ran before it had a node of its
    own: twelve single-op tape nodes (q/k/v affines, attention, the output
    affine, two residual adds, two layernorms, affine-gelu-affine)."""
    (wq, bq, wk, bk, wv, bv, wo, bo,
     ln1_gain, ln1_bias, ff_w1, ff_b1, ff_w2, ff_b2, ln2_gain, ln2_bias) = weights
    q = affine(x, wq, bq)
    k = affine(x, wk, bk)
    v = affine(x, wv, bv)
    heads_out = multihead_attention(q, k, v, heads, m)
    attn_out = affine(heads_out, wo, bo)
    x = layernorm(nm.add(x, attn_out), ln1_gain, ln1_bias)
    ff = affine(gelu(affine(x, ff_w1, ff_b1)), ff_w2, ff_b2)
    return layernorm(nm.add(x, ff), ln2_gain, ln2_bias)


def reference_embed(model, seq, prompt_names=(), frozen=frozenset()):
    """The per-op embed-then-attach_prompts chain: three lookups, two adds,
    then one reshape per prompt and a concat; frozen prompts enter as
    constant copies."""
    n = seq.ids.size
    tok = embedding_lookup(model.encoder["embed.tok"], seq.ids)
    seg = embedding_lookup(model.encoder["embed.seg"], np.zeros(n, dtype=np.intp))
    pos = embedding_lookup(model.encoder["embed.pos"], np.arange(n, dtype=np.intp))
    x_in = nm.add(nm.add(tok, seg), pos)
    if not prompt_names:
        return x_in
    rows = []
    for name in prompt_names:
        vec = model.prompts[name]
        if name in frozen:
            vec = Tensor(vec.data)
        rows.append(reshape(vec, (1, model.config.d)))
    return concat_rows(rows + [x_in])


def reference_encode(model, seq, prompt_names=(), frozen=frozenset()):
    """ProteinEncoder.encode's h on the per-op chain."""
    x = reference_embed(model, seq, prompt_names, frozen)
    for weights in model.layers:
        x = reference_encoder_layer(weights, model.config.heads, x, len(prompt_names))
    return x


def attention_maps(model, seq, prompt_names=()):
    """The attention maps of model.encode(seq, prompt_names): per layer, one
    (m+n, m+n) map per head. No encode forms them (attention normalises
    after the value product), so this oracle rebuilds them tape-free.

    Each layer's input comes from the encode's own nodes. The input rows are
    the forward's kernels in the forward's order (the q and k affines, the
    head split with 1/sqrt(dh) folded into Q, _exp_scores), divided by their
    row sums: the bits the forward divides its value product by. The prompt
    rows are scored against penalty_mask's rows, as reference_attention
    scores them, so src/'s one-way mask is not what they show.
    """
    if nm._active_tape() is not None:
        raise OracleError("attention_maps runs without a tape")
    m, heads = len(prompt_names), model.config.heads
    x = model.embed(seq, prompt_names).data
    maps = []
    for weights in model.layers:
        wq, bq, wk, bk = (t.data for t in weights[:4])
        q, k = nm._affine_forward(x, wq, bq), nm._affine_forward(x, wk, bk)
        n, d = q.shape
        dh = d // heads
        qh = np.multiply(nm._heads(q, heads), 1.0 / float(np.sqrt(dh)),
                         out=np.empty((heads, n, dh)))
        kt = np.ascontiguousarray(nm._heads(k, heads).transpose(0, 2, 1))
        e, _ = nm._exp_scores(qh, kt, m)
        e /= np.add.reduce(e, axis=-1, keepdims=True)
        s = qh[:, :m] @ kt + penalty_mask(m, n - m)[:m]
        p = np.exp(s - s.max(axis=-1, keepdims=True))
        p /= p.sum(axis=-1, keepdims=True)
        maps.append([np.vstack([p[h], e[h]]) for h in range(heads)])
        x = nm.encoder_layer(Tensor(x), weights, heads, m).data
    return maps


# ---------------------------------------------------------------------------
# the single-op loss chain that the fused cross_entropy_rows and pair_bce
# nodes are checked against


def scale(x, c):
    """x * c for a python scalar c."""
    c = float(c)
    out_data = x.data * c

    def backprop(g):
        nm._accum(x, g * c)

    return nm._node((x,), out_data, backprop, "scale")


def concat_rows(parts):
    """Stack 2-d tensors along axis 0; column counts must agree."""
    if not parts:
        raise ContractError("concat_rows needs at least one tensor")
    cols = {p.shape[1] for p in parts if p.data.ndim == 2}
    if any(p.data.ndim != 2 for p in parts) or len(cols) != 1:
        raise ShapeError(f"concat_rows got shapes {[p.shape for p in parts]}")
    out_data = np.concatenate([p.data for p in parts], axis=0)
    offsets = np.cumsum([0] + [p.shape[0] for p in parts])

    def backprop(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            nm._accum(p, g[lo:hi])

    return nm._node(tuple(parts), out_data, backprop, "concat_rows")


def pick(x, rows, cols):
    """Gather scalar entries x[rows[k], cols[k]] into a vector."""
    if x.data.ndim != 2:
        raise ShapeError(f"pick needs a 2-d tensor, got {x.shape}")
    r = np.asarray(rows, dtype=np.intp)
    c = np.asarray(cols, dtype=np.intp)
    if r.shape != c.shape or r.ndim != 1:
        raise ShapeError("pick needs matching 1-d row/col index vectors")
    if r.size and not (
        0 <= r.min() and r.max() < x.shape[0] and 0 <= c.min() and c.max() < x.shape[1]
    ):
        raise ShapeError(f"pick index out of range for shape {x.shape}")

    def backprop(g):
        full = np.zeros_like(x.data)
        np.add.at(full, (r, c), g)
        nm._accum(x, full)

    return nm._node((x,), x.data[r, c], backprop, "pick")


def log_softmax_rows(x):
    """Row-wise log softmax, stabilised by row-max subtraction."""
    if x.data.ndim != 2:
        raise ShapeError(f"log_softmax_rows needs a 2-d tensor, got {x.shape}")
    shifted = x.data - x.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    y = shifted - lse
    p = np.exp(y)

    def backprop(g):
        nm._accum(x, g - p * g.sum(axis=1, keepdims=True))

    return nm._node((x,), y, backprop, "log_softmax_rows")


def bce_with_logits_mean(logits, labels):
    """Mean binary cross-entropy on raw logits, log-sum-exp stabilised.

    labels is a constant array of 0/1 floats with the same shape as logits.
    """
    y = np.asarray(labels, dtype=np.float64)
    if y.shape != logits.shape:
        raise ShapeError(f"labels shape {y.shape} does not match logits {logits.shape}")
    if y.size == 0:
        raise ContractError("bce_with_logits_mean on empty logits")
    if not np.all((y == 0.0) | (y == 1.0)):
        raise ContractError("bce labels must be 0 or 1")
    z = logits.data
    # max(z,0) - z*y + log(1+exp(-|z|)) is exact and never overflows
    per = np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))
    n = y.size

    def backprop(g):
        # sigmoid(z) from e = exp(-|z|) <= 1: both branches are evaluated,
        # so neither may overflow
        e = np.exp(-np.abs(z))
        sig = np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
        nm._accum(logits, float(g) * (sig - y) / n)

    return nm._node((logits,), np.asarray(per.mean()), backprop, "bce_with_logits_mean")


def mlm_loss(logits, targets, reduction="sum"):
    """Masked-token cross-entropy: -sum(log q(y)) over target positions;
    "mean" divides by the number of targets."""
    t = np.asarray(targets, dtype=np.intp)
    if t.size == 0:
        raise ContractError("mlm_loss needs at least one target")
    if logits.data.ndim != 2 or logits.shape[0] != t.size:
        raise ContractError(f"logits shape {logits.shape} does not match {t.size} targets")
    logp = log_softmax_rows(logits)
    chosen = pick(logp, np.arange(t.size, dtype=np.intp), t)
    loss = scale(sum_all(chosen), -1.0)
    if reduction == "sum":
        return loss
    if reduction == "mean":
        return scale(loss, 1.0 / t.size)
    raise ConfigError(f"unknown reduction {reduction!r}")


def ppi_loss(logits, labels):
    """Mean binary cross-entropy on interaction logits (1 or 7 slots)."""
    y = np.asarray(labels, dtype=np.float64)
    if not np.all((y == 0.0) | (y == 1.0)):
        raise ContractError("interaction labels must be 0 or 1")
    return bce_with_logits_mean(logits, y)


def mlm_logits(model, out, positions):
    """Vocabulary logits at the given input positions of an encode, (|Y|, 25)."""
    pos = np.asarray(positions, dtype=np.intp)
    if pos.size == 0:
        raise ContractError("mlm_logits needs at least one target position")
    return affine(select_rows(out.h, out.rows(pos)), *model.head("mlm"))


def reference_forward_mlm(model, batch, reduction="sum", frozen=frozenset()):
    """The per-sequence masked-LM chain the cross_entropy_rows node replaced:
    per sequence an encode, select_rows, affine, log_softmax_rows, pick,
    sum_all and scale nodes, the terms folded by add in sequence order."""
    prompts = tuple(model.prompts)
    loss = None
    for masked in batch:
        out = model.encode(T.TokenSequence(ids=masked.corrupted), prompts, frozen=frozen)
        term = mlm_loss(mlm_logits(model, out, masked.positions), masked.targets, reduction)
        loss = term if loss is None else nm.add(loss, term)
    return loss


def reference_forward_pairs(model, batch, frozen=frozenset()):
    """The per-pair chain the pair_bce node replaced: one encode, select_rows
    and mean_over_rows per protein, then per pair a product, affine and
    reshape node, one concat_rows and the mean BCE."""
    prompts = tuple(model.prompts)
    w, b = model.pair_head(batch.labels.shape[-1])
    outs = [model.encode(seq, prompts, frozen=frozen) for seq in batch.proteins]
    pooled = [mean_over_rows(select_rows(out.h, out.rows())) for out in outs]
    logit_rows = [reshape(affine(mul(pooled[i], pooled[j]), w, b), (1, -1))
                  for i, j in batch.pairs]
    return ppi_loss(concat_rows(logit_rows), batch.labels)


def pair_batch(name, seq_pairs, labels):
    """A PairTaskBatch over (TokenSequence, TokenSequence) pairs: each
    distinct sequence object once, in order of first use, as
    cli._ppi_batches names each protein once."""
    slot = {}
    for seq in (seq for pair in seq_pairs for seq in pair):
        slot.setdefault(id(seq), (len(slot), seq))
    pairs = np.array([[slot[id(p)][0], slot[id(q)][0]] for p, q in seq_pairs]).reshape(-1, 2)
    return O.PairTaskBatch(name, [seq for _, seq in slot.values()], pairs,
                           np.asarray(labels, dtype=np.float64))


def ppi_graph(edge_list):
    """A binary PPIGraph labelling each (a, b) of edge_list 1, its keys
    canonical and repeats merged, as parse_ppi_tsv builds one."""
    return D.PPIGraph({tuple(sorted(edge)): np.array([1]) for edge in edge_list}, 1)


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
            s = (q[:, sl] * (1.0 / math.sqrt(dh))) @ k[:, sl].T.copy() + penalty
            e = np.exp(s - s.max(axis=1, keepdims=True))
            outs.append((e @ v[:, sl]) / e.sum(axis=1, keepdims=True))
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


def reference_attention(q, k, v, heads, m, g):
    """Plain numpy, one-head-at-a-time multi-head masked attention over m
    prompt rows, with the explicit additive mask array of penalty_mask, in
    the kernel's float order.

    Each head scales Q by c = 1/sqrt(dh) before the score product and
    divides the value product by the row sums of E = exp(S - rowmax S). The
    prompt rows and the input rows are two row blocks, each scored against
    its own rows of the mask, as the kernel scores only the input rows (a
    BLAS product's row can depend on how many rows it is given). Returns
    the (n, d) output and the gradients of sum(out * g) with respect to q,
    k and v, each head computed and differentiated as its own chain of 2-d
    operations.
    """
    n, d = q.shape
    mask = penalty_mask(m, n - m)
    dh = d // heads
    c = 1.0 / math.sqrt(dh)
    out, dq, dk, dv = (np.zeros((n, d)) for _ in range(4))
    for h in range(heads):
        sl = slice(h * dh, (h + 1) * dh)
        qc, kh, vh = q[:, sl] * c, k[:, sl].copy(), v[:, sl].copy()
        y = np.zeros((n, n))
        for rows in (slice(0, m), slice(m, n)):
            s = qc[rows] @ kh.T.copy() + mask[rows]
            e = np.exp(s - s.max(axis=1, keepdims=True))
            r = e.sum(axis=1, keepdims=True)
            out[rows, sl] = (e @ vh) / r
            y[rows] = e / r
        gh = g[:, sl].copy()
        dv[:, sl] = y.T @ gh
        dy = gh @ vh.T
        ds = y * (dy - (dy * y).sum(axis=1, keepdims=True))
        dq[:, sl] = (ds @ kh) * c
        dk[:, sl] = (qc.T @ ds).T
    return out, dq, dk, dv


def normalised_first_attention(q, k, v, heads, m, g):
    """reference_attention in the order the kernel used before it deferred
    the softmax: scores scaled by c after the product, every row scored,
    rows normalised before the value product. The kernel must stay within
    1e-12 of it."""
    n, d = q.shape
    mask = penalty_mask(m, n - m)
    dh = d // heads
    c = 1.0 / math.sqrt(dh)
    out, dq, dk, dv = (np.zeros((n, d)) for _ in range(4))
    for h in range(heads):
        sl = slice(h * dh, (h + 1) * dh)
        qh, kh, vh = q[:, sl].copy(), k[:, sl].copy(), v[:, sl].copy()
        s = (qh @ kh.T.copy()) * c + mask
        e = np.exp(s - s.max(axis=1, keepdims=True))
        y = e / e.sum(axis=1, keepdims=True)
        out[:, sl] = y @ vh
        gh = g[:, sl].copy()
        dv[:, sl] = y.T @ gh
        dy = gh @ vh.T
        ds = (y * (dy - (dy * y).sum(axis=1, keepdims=True))) * c
        dq[:, sl] = ds @ kh
        dk[:, sl] = (qh.T @ ds).T
    return out, dq, dk, dv


def rowsum_d_attention_backward(g, saved):
    """nm._attention_backward in the order it used before it took D from the
    attention output: D = rowsum(dY * Y), a (heads, n - m, n) product, where
    the kernel sums G * O over dh. The kernel must stay within 1e-12 of it."""
    qh, kt, vh, rowmax, r, m = saved
    heads, n, dh = qh.shape
    y, _ = nm._exp_scores(qh, kt, m, rowmax)
    y /= r
    gh = nm._heads(g, heads)[:, m:]
    dv = nm._merge_heads(y.transpose(0, 2, 1) @ gh)
    dv[:m] += g[:m]
    ds = gh @ vh.transpose(0, 2, 1)
    ds -= np.add.reduce(ds * y, axis=-1, keepdims=True)
    np.multiply(y, ds, out=ds)
    dq = np.zeros((n, heads * dh))
    np.matmul(ds, kt.transpose(0, 2, 1), out=nm._heads(dq, heads)[:, m:])
    dq *= 1.0 / float(np.sqrt(dh))
    dk = nm._merge_heads((qh[:, m:].transpose(0, 2, 1) @ ds).transpose(0, 2, 1))
    return dq, dk, dv


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
