"""Dense float64 tensors with tape-based reverse-mode differentiation.

Tensors wrap row-major numpy float64 arrays (0-d scalars, 1-d vectors,
2-d matrices). Primitives compute forward values eagerly and, when a Tape
is active and an input tracks gradients, record a backward closure on the
tape. backward() replays the tape in reverse execution order, which is a
valid topological order, visiting each node exactly once.

Every primitive validates that its output is finite; NaN/Inf is raised as
NumericsError instead of propagating silently. All computations are
deterministic: identical inputs give bit-identical outputs and gradients.

Kernels finish large intermediates with in-place ufuncs (`out=`, `*=`)
rather than chains of fresh temporaries: freed (heads, n, n) blocks go
back to the operating system and page-fault in again on the next
allocation. An in-place rewrite performs the same IEEE operations in the
same order as the expression it replaces, so results stay bit for bit the
same, and it writes only into arrays the kernel itself has just allocated:
never into an input's .data, an upstream gradient, or an array already
captured by a backward closure or handed to a caller.

Each kernel formula (affine, layernorm, GELU, attention, pooling and the
pair head) is written once, as an array-level forward and backward pair.
Two fused nodes call them: encoder_input (prompt rows plus the three
embedding lookups) and encoder_layer (attention, residuals, layernorms and
the feed-forward block). An encoder with L layers therefore records L+1 tape
nodes per sequence. The fused nodes perform the same float operations in the
same order as a chain of single-op nodes, so their outputs and gradients are
bit for bit those of the chain. That chain (single-op affine, attention,
layernorm, GELU and embedding lookup over the same kernels) lives in
tests/conftest.py as the oracle the fused nodes are checked against.

Attention applies the one-way mask by its structure. A prompt row's only
allowed key is itself, so its output is its own value row and only the
input rows are scored. 1/sqrt(dh) is folded into Q before the score
product, and the softmax is normalised after the value product, out =
(E V) / rowsum E, the deferred normalisation of FlashAttention (Dao et al.
2022). So no pass over the (heads, n - m, n) score block scales or divides
it, and no encode forms the normalised maps; tests/conftest.py rebuilds
them from the same kernels as an oracle. Taped and tape-free encodes run
this one formula and give the same bits.

A taped encoder_layer keeps only what its backward cannot rebuild bit for
bit from a few cheap passes: Q, K, V by head, the attention's row maxima
and row sums, the attention output, the layernorms' normalised rows and
inverse deviations, and the GELU cdf, O(d + f) floats per row. The
backward rebuilds the rest bit for bit by the forward's own operations on
its operands: the normalised maps Y from one score product, the first
layernorm's output, the feed-forward pre-activation (the forward's GEMM)
and the GELU output from one pass each (activation recomputation, Chen et
al. 2016). It takes each row's D = rowsum(dY * Y) as G . O from the kept
output rows (FlashAttention's backward), so it holds two score blocks at
most, Y and dS. At n=256, d=64, f=4d, 4 heads a taped layer keeps 1.47 MB
(tracemalloc); the normalised maps alone would add 2.1 MB, growing as n^2.

Each head has one forward, shared by training and eval: the loss nodes
cross_entropy_rows and pair_bce run it on a step's stacked rows, and the
tape-free heads of model.ProteinEncoder run it on one sequence or pair.
The pair kernel sums each pair's products over d in one fixed order rather
than through a BLAS matmul, so a pair's logits do not depend on how many
pairs share the call: eval's one-pair calls give pair_bce's logits bit for
bit.

GELU's erf is Cephes's (Moshier 1989), which scipy.special.erf runs, in
numpy ufuncs and Cephes's operation order: on |u| <= 1 the rational gives
scipy's bits, and is odd bit for bit; beyond, np.exp stands in for libm's
exp, within 2^-53. GELU's 0.5 is folded into the coefficients, and cdf =
0.5 + erf(u) / 2 keeps the bits of 0.5 * (1 + erf(u)). The runtime needs
numpy only; tests/test_numerics.py checks _erf against scipy.
"""

from __future__ import annotations

import threading
from typing import Callable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ContractError, NumericsError, ShapeError

LAYERNORM_EPS = 1e-5

# Block size of contact_scores: diagonals per block of the forward's max
# tensor, rows per block of the backward's difference tensor. Either block
# holds at most CONTACT_BLOCK_ROWS * n * d floats, 1 MB at n=256, d=64, far
# below one (n*n, d) array. Forward ms for 4/8/16/32 at d=64, one BLAS
# thread, 2-vCPU x86-64, interleaved: 1.65/1.39/1.44/1.95 at n=205 and
# 2.48/2.15/2.17/2.85 at n=254; 8 and 16 tie and 8 needs half the memory.
# A block size can move bits through the BLAS product (4 did at n=254), so
# a new one must keep the contact_logits digests of tests/test_golden.py.
CONTACT_BLOCK_ROWS = 8

_SQRT2 = float(np.sqrt(2.0))
_INV_SQRT_2PI = float(1.0 / np.sqrt(2.0 * np.pi))

# Cephes's erf (ndtr.c): erf(u) = u T(u^2) / U(u^2) on |u| <= 1, else
# 1 - exp(-u^2) P(|u|) / Q(|u|); U and Q lead with p1evl's implicit 1.0.
_ERF_T = (9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3,
          7.00332514112805075473E3, 5.55923013010394962768E4)
_ERF_U = (1.0, 3.35617141647503099647E1, 5.21357949780152679795E2, 4.59432382970980127987E3,
          2.26290000613890934246E4, 4.92673942608635921086E4)
_ERFC_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
           4.86371970985681366614E1, 1.96520832956077098242E2, 5.26445194995477358631E2,
           9.34528527171957607540E2, 1.02755188689515710272E3, 5.57535335369399327526E2)
_ERFC_Q = (1.0, 1.32281951154744992508E1, 8.67072140885989742329E1, 3.54937778887819891062E2,
           9.75708501743205489753E2, 1.82390916687909736289E3, 2.24633760818710981792E3,
           1.65666309194161350182E3, 5.57535340817727675546E2)
# erf(u) rounds to +-1.0 from |u| = 5.93 on; |u| <= 6 keeps every Horner sum finite
_ERF_CLAMP = 6.0

_STATE = threading.local()


def _active_tape():
    return getattr(_STATE, "tape", None)


class Tape:
    """Execution-ordered record of primitive applications.

    Use as a context manager around a forward pass; backward(tape, loss)
    then propagates gradients. A thread records on one tape at a time:
    entering a Tape while another records raises ContractError and leaves
    the recording one as it was.
    """

    def __init__(self):
        self.nodes: list[Tensor] = []

    def __enter__(self) -> "Tape":
        if _active_tape() is not None:
            raise ContractError("a tape is already recording on this thread")
        _STATE.tape = self
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _STATE.tape = None


class Tensor:
    """A float64 array plus gradient bookkeeping."""

    __slots__ = ("data", "requires_grad", "grad", "_backprop")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.array(data, dtype=np.float64, order="C")
        if not np.isfinite(arr).all():
            raise NumericsError("tensor constructed with non-finite values")
        self.data = arr
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._backprop: Callable[[np.ndarray], None] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _check_finite(arr: np.ndarray, op: str) -> np.ndarray:
    if not np.logical_and.reduce(np.isfinite(arr), axis=None):
        raise NumericsError(f"non-finite values produced by {op}")
    return arr


def _node(parents: tuple, out_data: np.ndarray, backprop, op: str) -> Tensor:
    """Build the output tensor and record it when gradients are tracked."""
    _check_finite(out_data, op)
    out = Tensor.__new__(Tensor)
    # asarray keeps 0-d shapes (ascontiguousarray would promote them to 1-d)
    out.data = np.asarray(out_data, dtype=np.float64, order="C")
    out.requires_grad = any(p.requires_grad for p in parents)
    out.grad = None
    out._backprop = None
    tape = _active_tape()
    if tape is not None and out.requires_grad:
        out._backprop = backprop
        tape.nodes.append(out)
    return out


def _accum(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.array(g, dtype=np.float64)
    else:
        t.grad = t.grad + g


def backward(tape: Tape, loss: Tensor | Sequence[tuple[Tensor, float]]) -> None:
    """Reverse sweep from scalar roots recorded on the tape.

    loss is one root, seeded with 1, or a sequence of (root, weight) pairs,
    each seeded with its weight, so one sweep gives every leaf the weighted
    sum of the roots' gradients. Gradients accumulate into .grad of every
    leaf reachable from a root, and leaves keep them across calls (callers
    zero them). An intermediate node's gradient is dropped as soon as its
    closure has run, so the sweep holds only the gradients of nodes it has
    not reached yet; after it, every node on the tape has .grad None.
    """
    roots = [(loss, 1.0)] if isinstance(loss, Tensor) else list(loss)
    for root, _ in roots:
        if root.data.size != 1:
            raise ContractError(f"backward needs a scalar loss, got shape {root.shape}")
        if not any(root is node for node in tape.nodes):
            raise ContractError("loss was not recorded on this tape")
    for node in tape.nodes:
        node.grad = None
    for root, weight in roots:
        _accum(root, np.full_like(root.data, weight))
    for node in reversed(tape.nodes):
        if node.grad is None or node._backprop is None:
            continue
        node._backprop(node.grad)
        node.grad = None


# ---------------------------------------------------------------------------
# primitives


# kept for perfbench/test_perfbench.py, which asserts that the tracer wraps it
def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise a + b; shapes must match exactly."""
    if a.shape != b.shape:
        raise ShapeError(f"add shapes {a.shape} and {b.shape} differ")
    out_data = a.data + b.data

    def backprop(g):
        _accum(a, g)
        _accum(b, g)

    return _node((a, b), out_data, backprop, "add")


def _checked_ids(ids, rows: int, what: str = "embedding id") -> np.ndarray:
    idx = np.asarray(ids, dtype=np.intp)
    if idx.ndim != 1:
        raise ShapeError(f"{what}s must be a 1-d integer sequence")
    if idx.size and (idx.min() < 0 or idx.max() >= rows):
        raise ShapeError(
            f"{what} out of range: {rows} rows, ids span [{idx.min()}, {idx.max()}]"
        )
    return idx


# ---------------------------------------------------------------------------
# array-level kernels: one forward and one backward per formula, shared by
# the fused nodes and the tape-free heads of model.ProteinEncoder.
# Reductions call the ufuncs directly (np.add.reduce, np.maximum.reduce): the
# same operations in the same order as .sum/.mean/.max, without their
# wrappers.
# A backward helper takes the parameters as tensors, accumulates their
# gradients when they require one, and returns the input's gradient.


def _row_mean(a: np.ndarray) -> np.ndarray:
    """Mean over the last axis as a kept column: a sum, then one division."""
    m = np.add.reduce(a, axis=-1, keepdims=True)
    m /= a.shape[-1]
    return m


def _affine_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = x @ w
    out += b
    return out


def _affine_backward(g: np.ndarray, x: np.ndarray, w: Tensor, b: Tensor,
                     need_dx: bool = True) -> np.ndarray | None:
    """Gradients of x @ w + b for 2-d g and x; dx only when need_dx."""
    if w.requires_grad:
        _accum(w, x.T @ g)
    if b.requires_grad:
        _accum(b, np.add.reduce(g, axis=0))
    return g @ w.data.T if need_dx else None


def _pool_forward(h: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Mean of h's chosen rows: a sequence's pooled (d,) vector."""
    return h[rows].mean(axis=0)


def _pair_forward(left: np.ndarray, right: np.ndarray, w: np.ndarray, b: np.ndarray):
    """Logits of pairs of (p, d) pooled vectors: (z, feats), feats = left *
    right for the backward and z = feats @ w + b, each pair's sum over d
    taken in one order whatever p is (a matmul may order it by p)."""
    feats = left * right
    z = np.add.reduce(feats[:, :, None] * w, axis=1)
    z += b
    return z, feats


def _layernorm_forward(x: np.ndarray, gain: np.ndarray, bias: np.ndarray):
    """Row layernorm of 2-d x: (out, xhat, invstd), the last two for the backward."""
    xhat = x - _row_mean(x)  # centred, scaled below
    var = _row_mean(np.square(xhat))
    invstd = 1.0 / np.sqrt(var + LAYERNORM_EPS)
    xhat *= invstd
    return _gain_bias(xhat, gain, bias), xhat, invstd


def _gain_bias(xhat: np.ndarray, gain: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Layernorm's output from its normalised rows: xhat * gain + bias."""
    out = xhat * gain
    out += bias
    return out


def _layernorm_backward(g: np.ndarray, gain: Tensor, bias: Tensor, xhat: np.ndarray,
                        invstd: np.ndarray) -> np.ndarray:
    if gain.requires_grad:
        _accum(gain, np.add.reduce(g * xhat, axis=0))
    if bias.requires_grad:
        _accum(bias, np.add.reduce(g, axis=0))
    dxhat = g * gain.data
    m1 = _row_mean(dxhat)
    m2 = _row_mean(dxhat * xhat)
    return invstd * (dxhat - m1 - xhat * m2)


def _polevl(x: np.ndarray, coefs, out: np.ndarray) -> np.ndarray:
    """Cephes's polevl into out; a leading 1.0 starts from x + coefs[1], as p1evl does."""
    if coefs[0] == 1.0:
        np.add(x, coefs[1], out=out)
    else:
        np.add(np.multiply(x, coefs[0], out=out), coefs[1], out=out)
    for c in coefs[2:]:
        out *= x
        out += c
    return out


def _erf(u: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """scale * erf(u) written over u (module docstring); a power-of-two scale is
    exact above the subnormals. Its other arrays of u's shape: u^2, the numerator."""
    z = np.abs(u, out=np.empty_like(u))
    tail = np.flatnonzero(z > 1.0)  # flat indices; cheaper than a boolean mask
    ut = u.take(tail)
    a = np.abs(ut)
    if a.size and a.max() > _ERF_CLAMP:  # rare, so only then is every array clamped
        np.minimum(a, _ERF_CLAMP, out=a)
        np.minimum(z, _ERF_CLAMP, out=z)
        np.copysign(z, u, out=u)
    np.multiply(z, z, out=z)
    num = _polevl(z, [c * scale for c in _ERF_T], np.empty_like(u))
    num *= u
    np.divide(num, _polevl(z, _ERF_U, u), out=u)
    if tail.size:
        e = np.exp(np.multiply(a, -a))
        e *= _polevl(a, [c * scale for c in _ERFC_P], np.empty_like(a))
        e /= _polevl(a, _ERFC_Q, np.empty_like(a))
        u.put(tail, np.copysign(np.subtract(scale, e, out=e), ut, out=e))
    return u


def _gelu_forward(x: np.ndarray):
    """Exact GELU: (out, cdf), cdf = 0.5 * (1 + erf(x / sqrt 2)) for the backward."""
    # out= rather than `x / _SQRT2`, a numpy scalar (no valid buffer) for a 0-d x
    cdf = _erf(np.divide(x, _SQRT2, out=np.empty_like(x)), 0.5)
    cdf += 0.5
    return x * cdf, cdf


def _gelu_backward(g: np.ndarray, x: np.ndarray, cdf: np.ndarray) -> np.ndarray:
    # g * (cdf + x * pdf), pdf = _INV_SQRT_2PI * exp(-0.5 * x * x)
    dx = np.multiply(-0.5, x, out=np.empty_like(x))
    dx *= x
    np.exp(dx, out=dx)
    dx *= _INV_SQRT_2PI
    dx *= x
    dx += cdf
    dx *= g
    return dx


def _heads(a: np.ndarray, heads: int) -> np.ndarray:
    """The (heads, n, d / heads) view of an (n, d) array: head h is columns
    [h*dh, (h+1)*dh). At heads=1 it is a itself, reshaped."""
    n, d = a.shape
    return a.reshape(n, heads, d // heads).transpose(1, 0, 2)


def _merge_heads(a: np.ndarray) -> np.ndarray:
    """(heads, n, dh) -> C-ordered (n, heads * dh), as a copy."""
    heads, n, dh = a.shape
    return np.ascontiguousarray(a.transpose(1, 0, 2)).reshape(n, heads * dh)


def _exp_scores(qh: np.ndarray, kt: np.ndarray, m: int, rowmax: np.ndarray | None = None):
    """(E, rowmax): E = exp(S - rowmax) of the input rows' scores S = qh[:, m:] kt,
    in one fresh (heads, n - m, n) buffer, rowmax = rowmax S unless given.
    The backward passes the forward's rowmax and gets the forward's E bit
    for bit: the same operands through the same operations in the same order.
    """
    e = qh[:, m:] @ kt
    if rowmax is None:
        rowmax = np.maximum.reduce(e, axis=-1, keepdims=True)
    e -= rowmax
    np.exp(e, out=e)
    return e, rowmax


def _attention_forward(q: np.ndarray, k: np.ndarray, v: np.ndarray, heads: int, m: int,
                       taped: bool):
    """One-way multi-head attention of (n, d) arrays, the first m rows prompts:
    (out, saved), where saved = (qh, kt, vh, rowmax, rowsum, m) holds what
    the backward needs when taped, else None.

    Head h owns columns [h*dh, (h+1)*dh), dh = d/heads. c = 1/sqrt(dh) is
    folded into Q, an (n, dh) pass: S = (c Q_h) K_h^T, which is c (Q_h K_h^T)
    bit for bit when dh is a power of 4. A prompt row attends only to
    itself, so the mask applies by structure: a prompt row's output is its
    own V row and only the n - m input rows are scored. For them E =
    exp(S - rowmax S) and r = rowsum E, and the output is (E V_h) / r,
    normalised after the value product, so the maps Y = E / r are never
    formed. A taped forward keeps no score block, only its (heads, n - m)
    row maxima and sums: the backward rebuilds Y from them.
    """
    n, d = q.shape
    if d % heads or not 0 <= m <= n:
        raise ShapeError(f"attention over {q.shape} got {heads} heads and {m} prompts")
    dh = d // heads
    # an array of its own: at heads=1 the head view is q itself
    qh = np.multiply(_heads(q, heads), 1.0 / float(np.sqrt(dh)), out=np.empty((heads, n, dh)))
    kt = np.ascontiguousarray(_heads(k, heads).transpose(0, 2, 1))
    vh = np.ascontiguousarray(_heads(v, heads))
    out = np.empty((n, d))
    out[:m] = v[:m]  # a prompt row's only allowed key is itself
    del q, k, v  # arrays the caller passed without keeping go before the score block
    e, rowmax = _exp_scores(qh, kt, m)
    r = np.add.reduce(e, axis=-1, keepdims=True)
    rows = out[m:].reshape(n - m, heads, dh)  # the input rows, by head
    np.matmul(e, vh, out=rows.transpose(1, 0, 2))
    rows /= r.transpose(1, 0, 2)  # in the rows' own order: faster than on the head view
    return out, (qh, kt, vh, rowmax, r, m) if taped else None


def _attention_backward(g: np.ndarray, out: np.ndarray, saved):
    """(dq, dk, dv) of attention for upstream g, from _attention_forward's out and saved.

    Y is recomputed first, by the forward's own operations in its order (E =
    exp(S - rowmax), then E / r), so it is the forward's Y bit for bit. With
    G a head's upstream block and O its output block over the input rows:
    dV = Y^T G, plus each prompt row's own upstream row; dY = G V^T, dS = Y *
    (dY - D) with D = rowsum(G * O), which is rowsum(dY * Y) since O = Y V
    (FlashAttention's backward), so D costs no (heads, n - m, n) temporary,
    and Y goes once dS exists; dQ = c (dS K) on the input rows and 0 on the
    prompt rows, whose scores are fixed; dK = ((c Q)^T dS)^T. The saved Q is
    already scaled, so c scales dQ, an (n, d) pass, and never dS.
    """
    qh, kt, vh, rowmax, r, m = saved
    heads, n, dh = qh.shape
    y, _ = _exp_scores(qh, kt, m, rowmax)
    y /= r
    gh = _heads(g, heads)[:, m:]
    dv = _merge_heads(y.transpose(0, 2, 1) @ gh)
    dv[:m] += g[:m]
    ds = gh @ vh.transpose(0, 2, 1)  # dY, turned into dS in place
    ds -= np.add.reduce(gh * _heads(out, heads)[:, m:], axis=-1, keepdims=True)
    np.multiply(y, ds, out=ds)
    del y
    dq = np.zeros((n, heads * dh))
    np.matmul(ds, kt.transpose(0, 2, 1), out=_heads(dq, heads)[:, m:])
    dq *= 1.0 / float(np.sqrt(dh))
    dk = _merge_heads((qh[:, m:].transpose(0, 2, 1) @ ds).transpose(0, 2, 1))
    return dq, dk, dv


def _gather_backward(table: Tensor, idx: np.ndarray, g: np.ndarray) -> None:
    """Scatter-add g's rows into a zero gradient of table at idx."""
    if table.requires_grad:
        full = np.zeros_like(table.data)
        np.add.at(full, idx, g)
        _accum(table, full)


# ---------------------------------------------------------------------------
# fused encoder nodes: the same float operations in the same order as the
# chains of single-op nodes they replace, recorded as one tape node.
# Without a tape they build no closure. encoder_layer lets q, k and v go
# once they are split into heads and the (heads, n - m, n) score block go
# once the attention output exists, taped or not (its backward rebuilds the
# block), so an encode holds one score block at a time.


def encoder_input(tok_table: Tensor, seg_table: Tensor, pos_table: Tensor, ids,
                  prompts: Sequence[Tensor] = ()) -> Tensor:
    """Prompt rows, then token + segment + position embedding rows, one node.

    Row i < m = len(prompts) is prompts[i], with no position or segment
    embedding; row m + t is (tok_table[ids[t]] + seg_table[0]) + pos_table[t].
    A prompt that does not require gradients enters as a constant. The
    output is finite only if every gathered row is, so one check covers them.
    """
    d = tok_table.shape[-1]
    if any(t.data.ndim != 2 or t.shape[1] != d for t in (tok_table, seg_table, pos_table)):
        raise ShapeError(f"embedding tables {tok_table.shape}/{seg_table.shape}/"
                         f"{pos_table.shape} differ in width")
    if any(p.shape != (d,) for p in prompts):
        raise ShapeError(f"prompt shapes {[p.shape for p in prompts]} do not fit width {d}")
    idx = _checked_ids(ids, tok_table.shape[0])
    m, n = len(prompts), idx.size
    if n > pos_table.shape[0]:
        raise ShapeError(f"sequence of {n} tokens exceeds position table of "
                         f"{pos_table.shape[0]} rows")
    out_data = np.empty((m + n, d))
    for i, p in enumerate(prompts):
        out_data[i] = p.data
    rows = out_data[m:]
    np.add(tok_table.data[idx], seg_table.data[0], out=rows)
    rows += pos_table.data[:n]

    def backprop(g):
        for i in reversed(range(m)):
            _accum(prompts[i], g[i])
        rows_g = g[m:]
        # positions are arange(n) and segments all 0, so a slice add and a
        # column sum give np.add.at's bits without its scatter; cumsum sums
        # in row order in every memory layout, where add.reduce may not
        if pos_table.requires_grad:
            full = np.zeros_like(pos_table.data)
            full[:n] += rows_g
            _accum(pos_table, full)
        if seg_table.requires_grad:
            full = np.zeros_like(seg_table.data)
            if n:
                full[0] += np.cumsum(rows_g, axis=0)[-1]
            _accum(seg_table, full)
        _gather_backward(tok_table, idx, rows_g)

    return _node((tok_table, seg_table, pos_table, *prompts), out_data, backprop,
                 "encoder_input")


def encoder_layer(x: Tensor, weights: Sequence[Tensor], heads: int, m: int) -> Tensor:
    """One post-norm transformer encoder layer as one tape node.

    weights = (wq, bq, wk, bk, wv, bv, wo, bo, ln1_gain, ln1_bias,
    w1, b1, w2, b2, ln2_gain, ln2_bias), x (n, d):
        a = attention(x wq + bq, x wk + bk, x wv + bv) wo + bo
        h = layernorm(x + a; ln1),  out = layernorm(h + gelu(h w1 + b1) w2 + b2; ln2)
    with heads and m (x's prompt rows come first) as in _attention_forward.
    The closed-form backward runs the kernels' backwards in reverse order;
    the gradient reaches h as d_res2 + dh_ff and x as ((d_res1 + dx_v) +
    dx_k) + dx_q, the order in which the per-op tape summed them. The
    closure keeps neither h, f1, act nor the attention maps Y: the backward
    rebuilds h = xhat1 * gain + bias, f1 = h w1 + b1, act = f1 * cdf and Y
    by the forward's operations on its operands, bit for bit, and drops each
    after its last reader. Every intermediate the per-op chain checked is
    checked for finiteness.
    """
    if len(weights) != 16 or x.data.ndim != 2:
        raise ShapeError(f"encoder_layer needs a 2-d x and 16 weights, got {x.shape} "
                         f"and {len(weights)}")
    (wq, bq, wk, bk, wv, bv, wo, bo,
     ln1_gain, ln1_bias, w1, b1, w2, b2, ln2_gain, ln2_bias) = weights
    d, f = x.shape[1], w1.shape[-1]
    expected = [(d, d), (d,)] * 4 + [(d,), (d,), (d, f), (f,), (f, d), (d,), (d,), (d,)]
    if [t.shape for t in weights] != expected:
        raise ShapeError(f"encoder_layer weights {[t.shape for t in weights]} do not fit "
                         f"width {d}")
    parents = (x, *weights)
    taped = _active_tape() is not None and any(t.requires_grad for t in parents)
    xd = x.data
    att, saved = _attention_forward(
        _check_finite(_affine_forward(xd, wq.data, bq.data), "affine"),
        _check_finite(_affine_forward(xd, wk.data, bk.data), "affine"),
        _check_finite(_affine_forward(xd, wv.data, bv.data), "affine"),
        heads, m, taped,
    )
    _check_finite(att, "multihead_attention")
    r1 = xd + _check_finite(_affine_forward(att, wo.data, bo.data), "affine")
    h, xhat1, invstd1 = _layernorm_forward(_check_finite(r1, "add"), ln1_gain.data,
                                           ln1_bias.data)
    f1 = _check_finite(_affine_forward(_check_finite(h, "layernorm"), w1.data, b1.data),
                       "affine")
    act, cdf = _gelu_forward(f1)
    r2 = h + _check_finite(_affine_forward(_check_finite(act, "gelu"), w2.data, b2.data),
                           "affine")
    out_data, xhat2, invstd2 = _layernorm_forward(_check_finite(r2, "add"), ln2_gain.data,
                                                  ln2_bias.data)
    backprop = None
    if taped:
        def backprop(g):
            d_res2 = _layernorm_backward(g, ln2_gain, ln2_bias, xhat2, invstd2)
            h = _gain_bias(xhat1, ln1_gain.data, ln1_bias.data)
            f1 = _affine_forward(h, w1.data, b1.data)  # the forward's operands and GEMM
            d_f1 = _gelu_backward(_affine_backward(d_res2, f1 * cdf, w2, b2), f1, cdf)
            del f1
            d_res2 += _affine_backward(d_f1, h, w1, b1)  # now h's gradient
            del d_f1, h
            d_res1 = _layernorm_backward(d_res2, ln1_gain, ln1_bias, xhat1, invstd1)
            del d_res2
            dq, dk, dv = _attention_backward(_affine_backward(d_res1, att, wo, bo), att, saved)
            need_dx = x.requires_grad
            dx = _affine_backward(dv, xd, wv, bv, need_dx)
            dx_k = _affine_backward(dk, xd, wk, bk, need_dx)
            dx_q = _affine_backward(dq, xd, wq, bq, need_dx)
            if need_dx:
                dx = d_res1 + dx
                dx += dx_k
                dx += dx_q
                _accum(x, dx)

    return _node(parents, out_data, backprop, "layernorm")


def contact_scores(h: Tensor, rows, w_prod: Tensor, w_diff: Tensor, b: Tensor) -> Tensor:
    """Symmetric pair scores L_ij = (h_i*h_j) @ w_prod + b + |h_i - h_j| @ w_diff.

    h_i is row rows[i] of the 2-d h, and below h stands for those n rows;
    w_prod and w_diff (d,1), b (1,) -> (n,n). The product term is one
    matmul, S = (h * wp) h^T + b. The difference term uses |u - v| =
    2 max(u, v) - u - v: D_ij = 2 (max(h_i, h_j) @ wd) - r_i - r_j with
    r = h @ wd, within a few ulps of the direct sum, and D_ii = 0. It runs
    over the upper diagonals j = i + s, s >= 1, in blocks of
    CONTACT_BLOCK_ROWS: on a diagonal, h_i and h_j are two contiguous runs
    of h's rows, so one np.maximum pass over long runs, one matmul and two
    subtractions give the block, and no (n*n, d) array is built. 2 D_ij is
    added to S_ij (i < j) only, so the result (S + S^T) * 0.5, finished in
    place, holds each pair's D once and is symmetric bit for bit. The block
    size fixes the bits of the difference term's matmuls and of dwd's
    per-block sums. One tape node; with Gs = 0.5 * (G + G^T):
    dh = 2 (Gs h) * wp + 2 wd * sum_j Gs_aj sign(h_a - h_j) (sign(0) = 0),
    dwp = sum_i h_i * (Gs h)_i, dwd = sum_ij Gs_ij |h_i - h_j|, db = sum G;
    dh_i goes back to row rows[i], once per listing.
    """
    if h.data.ndim != 2:
        raise ShapeError(f"contact_scores needs a 2-d h, got {h.shape}")
    idx = _checked_ids(rows, h.shape[0], "row")
    n, d = idx.size, h.shape[1]
    if w_prod.shape != (d, 1) or w_diff.shape != (d, 1) or b.shape != (1,):
        raise ShapeError(f"contact_scores weights {w_prod.shape}/{w_diff.shape}/{b.shape} "
                         f"do not fit width {d}")
    hd, wp, wd = h.data[idx], w_prod.data[:, 0], w_diff.data[:, 0]
    pad = min(CONTACT_BLOCK_ROWS, n)

    # S sits in the first n columns of an (n, n + pad) buffer. Flat, its
    # entry (i, i + s0 + t) is at i * (n + pad + 1) + s0 + t, so a block of
    # diagonals s0.. is one (n - s0, pad) view, whose entries for pairs past
    # the last residue land in the zeroed padding columns
    full = np.zeros((n, n + pad))
    scores = full[:, :n]
    scores[...] = (hd * wp) @ hd.T
    scores += b.data
    # runs[s] is h's rows from s on, flattened, zeros past row n - 1;
    # r2_runs[s] is 2 r from s on
    padded = np.zeros((2 * n, d))
    padded[:n] = hd
    runs = sliding_window_view(padded.reshape(-1), n * d)[::d]
    r2 = np.zeros(2 * n)
    r2[:n] = hd @ wd
    r2 *= 2.0
    r2_runs = sliding_window_view(r2, n)
    buf = np.empty(pad * n * d)  # one buffer serves every block
    for s0 in range(1, n, CONTACT_BLOCK_ROWS):
        k, m = min(CONTACT_BLOCK_ROWS, n - s0), n - s0  # diagonals s0.., pairs on s0
        top = np.maximum(runs[0, : m * d], runs[s0 : s0 + k, : m * d],
                         out=buf[: k * m * d].reshape(k, m * d))
        twice = (top.reshape(-1, d) @ wd).reshape(k, m)  # 2 D, pair (i, i + s0 + t) at [t, i]
        twice *= 4.0
        twice -= r2[:m]
        twice -= r2_runs[s0 : s0 + k, :m]
        upper = full.reshape(-1)[s0 : s0 + m * (n + pad + 1)].reshape(m, n + pad + 1)
        upper[:, :k] += twice.T
    out_data = scores + scores.T
    out_data *= 0.5

    def backprop(g):
        gs = 0.5 * (g + g.T)
        gh = gs @ hd
        sign_sum = np.empty((n, d))
        dwd = np.zeros(d)
        block = np.empty((pad, n, d))
        for lo in range(0, n, CONTACT_BLOCK_ROWS):
            hi = min(lo + CONTACT_BLOCK_ROWS, n)
            # h_i - h_j for the block's rows i against every column j
            diff = np.subtract(hd[lo:hi, None, :], hd, out=block[: hi - lo])
            gblk = gs[lo:hi]
            sign_sum[lo:hi] = (gblk[:, None, :] @ np.sign(diff))[:, 0, :]
            np.abs(diff, out=diff)
            dwd += (gblk.reshape(1, -1) @ diff.reshape(-1, d))[0]
        _gather_backward(h, idx, 2.0 * gh * wp + 2.0 * wd * sign_sum)
        _accum(w_prod, (hd * gh).sum(axis=0)[:, None])
        _accum(w_diff, dwd[:, None])
        _accum(b, np.array([g.sum()]))

    return _node((h, w_prod, w_diff, b), out_data, backprop, "contact_scores")


# ---------------------------------------------------------------------------
# fused loss nodes: one source's head and loss over a step's encodes as one
# tape node. Row-wise work keeps the float order of the per-sequence chain in
# tests/conftest.py; the head's sums over the stacked rows (cross_entropy_rows'
# matmul, pair_bce's fixed-order product-sum) and the gradient sums over rows
# reorder additions, within 1e-12 of the chain.


def _checked_rows(hs: Sequence[Tensor], rows: Sequence, w: Tensor, b: Tensor) -> list:
    if not hs:
        raise ContractError("a loss node needs at least one sequence")
    d = hs[0].shape[-1]
    if len(hs) != len(rows) or any(h.data.ndim != 2 or h.shape[1] != d for h in hs):
        raise ShapeError(f"{len(rows)} row sets for encoder outputs {[h.shape for h in hs]}")
    if w.data.ndim != 2 or w.shape[0] != d or b.shape != (w.shape[1],):
        raise ShapeError(f"head {w.shape}/{b.shape} does not fit width {d}")
    idx = [_checked_ids(r, h.shape[0], "row") for h, r in zip(hs, rows)]
    if not all(r.size for r in idx):
        raise ContractError("every sequence needs at least one chosen row")
    return idx


def cross_entropy_rows(hs: Sequence[Tensor], rows: Sequence, targets: Sequence,
                       w: Tensor, b: Tensor, mean: bool = False) -> Tensor:
    """Summed cross-entropy of the affine head (w, b) over chosen rows, one node.

    Sequence i gives rows[i] of hs[i] and their classes targets[i]. Over the
    stacked rows X, Z = X w + b and log P = Z - logsumexp(Z), max-shifted per
    row; sequence i's term is -sum log P[r, targets[r]] over its k_i rows,
    times 1/k_i if mean, and the node adds the terms in sequence order.
    Backward, with c = -g (or -g/k_i) per row: dZ = c (onehot - P), dw =
    X^T dZ, db = column sums of dZ, and dZ w^T goes back to rows[i].
    """
    idx = _checked_rows(hs, rows, w, b)
    counts = [r.size for r in idx]
    if [len(t) for t in targets] != counts:
        raise ContractError(f"{[len(t) for t in targets]} targets for {counts} rows")
    tgt = _checked_ids(np.concatenate(targets), w.shape[1], "target")
    starts = np.cumsum(counts)[:-1]
    inv = 1.0 / np.array(counts, dtype=np.float64) if mean else np.ones(len(counts))
    x = np.concatenate([h.data[r] for h, r in zip(hs, idx)])
    z = _check_finite(_affine_forward(x, w.data, b.data), "affine")
    shifted = z - z.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    chosen = _check_finite(logp, "log_softmax_rows")[np.arange(tgt.size), tgt]
    sums = np.array([part.sum() for part in np.split(chosen, starts)])
    # terms added one after another, as the chain's add nodes did
    total = np.add.accumulate(_check_finite(sums, "sum_all") * -1.0 * inv)[-1]
    p = np.exp(logp)

    def backprop(g):
        per_row = np.repeat(float(g) * inv * -1.0, counts)
        dz = np.zeros_like(p)
        dz[np.arange(tgt.size), tgt] = per_row
        dz -= p * per_row[:, None]
        dx = _affine_backward(dz, x, w, b, any(h.requires_grad for h in hs))
        if dx is not None:
            for h, r, part in zip(hs, idx, np.split(dx, starts)):
                _gather_backward(h, r, part)

    return _node((*hs, w, b), np.asarray(total), backprop, "cross_entropy_rows")


def pair_bce(hs: Sequence[Tensor], rows: Sequence, left, right, w: Tensor, b: Tensor,
             labels) -> Tensor:
    """Mean binary cross-entropy of the affine head (w, b) over pooled pairs, one node.

    v_j is the mean of rows[j] of hs[j]. Pair r has the feature F_r =
    v_left[r] * v_right[r], logits z_r = F_r w + b (_pair_forward, so z_r does
    not depend on the other pairs) and 0/1 targets labels[r].
    The loss, mean(max(z, 0) - z y + log(1 + exp(-|z|))), never overflows.
    Backward: dz = g (sigmoid(z) - y) / z.size, sigmoid taken from exp(-|z|)
    <= 1 on both branches; dw = F^T dz, db = column sums of dz; v_j gathers
    (dz w^T) * partner over every pair side it fills, spread evenly over rows[j].
    """
    idx = _checked_rows(hs, rows, w, b)
    lhs, rhs = (_checked_ids(side, len(hs), "pair index") for side in (left, right))
    y = np.asarray(labels, dtype=np.float64)
    if not y.size or y.shape != (lhs.size, w.shape[1]) or rhs.shape != lhs.shape:
        raise ShapeError(f"labels shape {y.shape} does not match {lhs.size} pairs of "
                         f"{w.shape[1]} logits")
    pooled = _check_finite(np.array([_pool_forward(h.data, r) for h, r in zip(hs, idx)]),
                           "pool")
    z, feats = _pair_forward(pooled[lhs], pooled[rhs], w.data, b.data)
    _check_finite(z, "affine")
    per = np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))

    def backprop(g):
        e = np.exp(-np.abs(z))
        sig = np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
        dfeats = _affine_backward(float(g) * (sig - y) / y.size, feats, w, b,
                                  any(h.requires_grad for h in hs))
        if dfeats is not None:
            dpooled = np.zeros_like(pooled)
            np.add.at(dpooled, lhs, dfeats * pooled[rhs])
            np.add.at(dpooled, rhs, dfeats * pooled[lhs])
            for h, r, dv in zip(hs, idx, dpooled):
                if h.requires_grad:  # each row of r gets dv / len(r), once per listing
                    _accum(h, np.bincount(r, minlength=h.shape[0])[:, None] * (dv / r.size))

    return _node((*hs, w, b), np.asarray(per.mean()), backprop, "pair_bce")
