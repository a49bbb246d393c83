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
"""

from __future__ import annotations

import threading
from typing import Callable, Sequence

import numpy as np
from scipy.special import erf

from .errors import ContractError, NumericsError, ShapeError

LAYERNORM_EPS = 1e-5

# Additive attention-mask penalty. Finite so the no-NaN invariant holds,
# yet large enough that exp() underflows to exactly 0.0 after the row-max
# subtraction inside the attention softmax.
MASK_NEG = -1.0e9

# Rows per block of contact_scores' (rows, n, d) difference tensor: 2 MB
# at n=256, d=64, so peak memory stays far below one (n*n, d) array.
CONTACT_BLOCK_ROWS = 16

_SQRT2 = float(np.sqrt(2.0))
_INV_SQRT_2PI = float(1.0 / np.sqrt(2.0 * np.pi))

_STATE = threading.local()


def _tape_stack() -> list:
    stack = getattr(_STATE, "stack", None)
    if stack is None:
        stack = []
        _STATE.stack = stack
    return stack


def _active_tape():
    stack = _tape_stack()
    return stack[-1] if stack else None


class Tape:
    """Execution-ordered record of primitive applications.

    Use as a context manager around a forward pass; backward(tape, loss)
    then propagates gradients. Tapes may nest; primitives record on the
    innermost active tape only.
    """

    def __init__(self):
        self.nodes: list[Tensor] = []

    def __enter__(self) -> "Tape":
        _tape_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        stack = _tape_stack()
        if not stack or stack[-1] is not self:
            raise ContractError("tape context exited out of order")
        stack.pop()


class Tensor:
    """A float64 array plus gradient bookkeeping."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backprop")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.array(data, dtype=np.float64, order="C")
        if not np.isfinite(arr).all():
            raise NumericsError("tensor constructed with non-finite values")
        self.data = arr
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._parents: tuple = ()
        self._backprop: Callable[[np.ndarray], None] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _check_finite(arr: np.ndarray, op: str) -> np.ndarray:
    if not np.isfinite(arr).all():
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
    out._parents = ()
    out._backprop = None
    tape = _active_tape()
    if tape is not None and out.requires_grad:
        out._parents = parents
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


def backward(tape: Tape, loss: Tensor) -> None:
    """Reverse sweep from a scalar loss recorded on the tape.

    Gradients accumulate into .grad of every leaf reachable from loss, and
    leaves keep them across calls (callers zero them). An intermediate
    node's gradient is dropped as soon as its closure has run, so the sweep
    holds only the gradients of nodes it has not reached yet; after it,
    every node on the tape has .grad None.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
    on_tape = any(loss is node for node in tape.nodes)
    if not on_tape:
        raise ContractError("loss was not recorded on this tape")
    for node in tape.nodes:
        node.grad = None
    loss.grad = np.ones_like(loss.data)
    for node in reversed(tape.nodes):
        if node.grad is None or node._backprop is None:
            continue
        node._backprop(node.grad)
        node.grad = None


# ---------------------------------------------------------------------------
# primitives


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise a + b; shapes must match exactly."""
    if a.shape != b.shape:
        raise ShapeError(f"add shapes {a.shape} and {b.shape} differ")
    out_data = a.data + b.data

    def backprop(g):
        _accum(a, g)
        _accum(b, g)

    return _node((a, b), out_data, backprop, "add")


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise (Hadamard) product; shapes must match exactly."""
    if a.shape != b.shape:
        raise ShapeError(f"mul shapes {a.shape} and {b.shape} differ")
    out_data = a.data * b.data

    def backprop(g):
        _accum(a, g * b.data)
        _accum(b, g * a.data)

    return _node((a, b), out_data, backprop, "mul")


def scale(x: Tensor, c: float) -> Tensor:
    """x * c for a python scalar c."""
    c = float(c)
    out_data = x.data * c

    def backprop(g):
        _accum(x, g * c)

    return _node((x,), out_data, backprop, "scale")


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    """Row-major reshape; element count must be preserved."""
    out_data = x.data.reshape(shape).copy()

    def backprop(g):
        _accum(x, g.reshape(x.shape))

    return _node((x,), out_data, backprop, "reshape")


def concat_rows(parts: Sequence[Tensor]) -> Tensor:
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
            _accum(p, g[lo:hi])

    return _node(tuple(parts), out_data, backprop, "concat_rows")


def slice_rows(x: Tensor, start: int, stop: int) -> Tensor:
    """Contiguous row slice x[start:stop] of a 2-d tensor."""
    if x.data.ndim != 2:
        raise ShapeError(f"slice_rows needs a 2-d tensor, got {x.shape}")
    if not (0 <= start <= stop <= x.shape[0]):
        raise ShapeError(f"slice_rows [{start}:{stop}] out of range for {x.shape}")
    out_data = x.data[start:stop].copy()

    def backprop(g):
        full = np.zeros_like(x.data)
        full[start:stop] = g
        _accum(x, full)

    return _node((x,), out_data, backprop, "slice_rows")


def select_rows(x: Tensor, indices) -> Tensor:
    """Gather rows x[indices]; duplicate indices accumulate gradient."""
    if x.data.ndim != 2:
        raise ShapeError(f"select_rows needs a 2-d tensor, got {x.shape}")
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim != 1:
        raise ShapeError("select_rows indices must be 1-d")
    if idx.size and (idx.min() < 0 or idx.max() >= x.shape[0]):
        raise ShapeError(f"select_rows index out of range for {x.shape[0]} rows")
    out_data = x.data[idx]

    def backprop(g):
        full = np.zeros_like(x.data)
        np.add.at(full, idx, g)
        _accum(x, full)

    return _node((x,), out_data, backprop, "select_rows")


def pick(x: Tensor, rows, cols) -> Tensor:
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
    out_data = x.data[r, c]

    def backprop(g):
        full = np.zeros_like(x.data)
        np.add.at(full, (r, c), g)
        _accum(x, full)

    return _node((x,), out_data, backprop, "pick")


def sum_all(x: Tensor) -> Tensor:
    """Sum of all elements as a 0-d scalar."""
    out_data = np.asarray(x.data.sum())

    def backprop(g):
        _accum(x, np.full(x.shape, float(g)))

    return _node((x,), out_data, backprop, "sum_all")


def mean_over_rows(x: Tensor) -> Tensor:
    """Column means of a 2-d tensor, (n,d) -> (d,). n must be >= 1."""
    if x.data.ndim != 2:
        raise ShapeError(f"mean_over_rows needs a 2-d tensor, got {x.shape}")
    n = x.shape[0]
    if n == 0:
        raise ContractError("mean_over_rows over zero rows")
    out_data = x.data.mean(axis=0)

    def backprop(g):
        _accum(x, np.broadcast_to(g / n, x.shape).copy())

    return _node((x,), out_data, backprop, "mean_over_rows")


def _softmax_last_inplace(s: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, stabilised by max subtraction, written
    into s (which the caller owns) and returned."""
    s -= s.max(axis=-1, keepdims=True)
    np.exp(s, out=s)
    s /= s.sum(axis=-1, keepdims=True)
    return s


def multihead_attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    heads: int,
    mask: np.ndarray,
    mask_mode: str,
    collect: list | None = None,
) -> Tensor:
    """Masked scaled dot-product attention over `heads` column blocks.

    q, k, v are (n, d); head h owns columns [h*dh, (h+1)*dh), dh = d/heads.
    S = (Q_h K_h^T) * c, c = 1/sqrt(dh); W = softmax(S + mask) if additive
    (mask of 0/MASK_NEG), softmax(S) * mask if literal (mask of 0/1); the
    heads' W V_h fill the (n, d) result, and collect (a list) gets the W.
    One tape node; with Y the softmax output and G a head's upstream block:
    dV = W^T G, dW = G V^T (times mask if literal),
    dS = Y * (dW - rowsum(dW * Y)) * c, dQ = dS K, dK = (Q^T dS)^T.
    """
    n, d = q.shape
    if k.shape != (n, d) or v.shape != (n, d) or d % heads or mask.shape != (n, n):
        raise ShapeError(f"attention got q/k/v {q.shape}/{k.shape}/{v.shape}, "
                         f"{heads} heads and mask {mask.shape}")
    if mask_mode not in ("additive", "literal"):
        raise ContractError(f"unknown mask_mode {mask_mode!r}")
    dh = d // heads
    c = 1.0 / float(np.sqrt(dh))

    def split(a):  # (n, d) -> contiguous (heads, n, dh)
        return np.ascontiguousarray(a.reshape(n, heads, dh).transpose(1, 0, 2))

    def merge(a):  # (heads, n, dh) -> C-ordered (n, d), as a copy
        return np.ascontiguousarray(a.transpose(1, 0, 2)).reshape(n, d)

    qh, vh = split(q.data), split(v.data)
    kt = np.ascontiguousarray(split(k.data).transpose(0, 2, 1))
    s = qh @ kt
    s *= c
    if mask_mode == "additive":
        s += mask
        y = w = _softmax_last_inplace(s)
    else:
        y = _softmax_last_inplace(s)
        w = y * mask
    if collect is not None:
        collect.append(list(w.copy()))

    def backprop(g):
        gh = g.reshape(n, heads, dh).transpose(1, 0, 2)
        _accum(v, merge(w.transpose(0, 2, 1) @ gh))
        ds = gh @ vh.transpose(0, 2, 1)  # dW, turned into dS in place
        if mask_mode == "literal":
            ds *= mask
        ds -= (ds * y).sum(axis=-1, keepdims=True)
        np.multiply(y, ds, out=ds)
        ds *= c
        _accum(q, merge(ds @ kt.transpose(0, 2, 1)))
        _accum(k, merge((qh.transpose(0, 2, 1) @ ds).transpose(0, 2, 1)))

    return _node((q, k, v), merge(w @ vh), backprop, "multihead_attention")


def log_softmax_rows(x: Tensor) -> Tensor:
    """Row-wise log softmax, stabilised by row-max subtraction."""
    if x.data.ndim != 2:
        raise ShapeError(f"log_softmax_rows needs a 2-d tensor, got {x.shape}")
    shifted = x.data - x.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    y = shifted - lse
    p = np.exp(y)

    def backprop(g):
        _accum(x, g - p * g.sum(axis=1, keepdims=True))

    return _node((x,), y, backprop, "log_softmax_rows")


def layernorm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = LAYERNORM_EPS) -> Tensor:
    """Row-wise layer normalisation with learnable gain/bias, eps=1e-5.

    x (n,d), gain (d,), bias (d,) -> (n,d).
    """
    if x.data.ndim != 2:
        raise ShapeError(f"layernorm needs a 2-d tensor, got {x.shape}")
    d = x.shape[1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(
            f"layernorm gain/bias shapes {gain.shape}/{bias.shape} do not match width {d}"
        )
    xhat = x.data - x.data.mean(axis=1, keepdims=True)  # centred, scaled below
    var = np.square(xhat).mean(axis=1, keepdims=True)
    invstd = 1.0 / np.sqrt(var + eps)
    xhat *= invstd
    out_data = xhat * gain.data
    out_data += bias.data

    def backprop(g):
        if x.requires_grad:
            dxhat = g * gain.data
            m1 = dxhat.mean(axis=1, keepdims=True)
            m2 = (dxhat * xhat).mean(axis=1, keepdims=True)
            _accum(x, invstd * (dxhat - m1 - xhat * m2))
        if gain.requires_grad:
            _accum(gain, (g * xhat).sum(axis=0))
        if bias.requires_grad:
            _accum(bias, g.sum(axis=0))

    return _node((x, gain, bias), out_data, backprop, "layernorm")


def gelu(x: Tensor) -> Tensor:
    """Exact (erf-based) GELU, applied elementwise."""
    # out= arrays rather than `x.data / _SQRT2`, which is a numpy scalar
    # (and no valid out=) for a 0-d x
    cdf = np.divide(x.data, _SQRT2, out=np.empty_like(x.data))
    erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    out_data = x.data * cdf

    def backprop(g):
        # g * (cdf + x * pdf), pdf = _INV_SQRT_2PI * exp(-0.5 * x * x)
        dx = np.multiply(-0.5, x.data, out=np.empty_like(x.data))
        dx *= x.data
        np.exp(dx, out=dx)
        dx *= _INV_SQRT_2PI
        dx *= x.data
        dx += cdf
        dx *= g
        _accum(x, dx)

    return _node((x,), out_data, backprop, "gelu")


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b. x (n,k) or (k,), w (k,m), b (m,)."""
    vector_in = x.data.ndim == 1
    xd = x.data[None, :] if vector_in else x.data
    if xd.ndim != 2 or w.data.ndim != 2 or xd.shape[1] != w.shape[0]:
        raise ShapeError(f"affine shapes {x.shape} and {w.shape} do not align")
    if b.shape != (w.shape[1],):
        raise ShapeError(f"affine bias shape {b.shape} does not match {w.shape}")
    out_data = xd @ w.data
    out_data += b.data
    if vector_in:
        out_data = out_data[0]

    def backprop(g):
        g2 = g[None, :] if vector_in else g
        if x.requires_grad:
            gx = g2 @ w.data.T
            _accum(x, gx[0] if vector_in else gx)
        if w.requires_grad:
            _accum(w, xd.T @ g2)
        if b.requires_grad:
            _accum(b, g2.sum(axis=0))

    return _node((x, w, b), out_data, backprop, "affine")


def embedding_lookup(table: Tensor, ids) -> Tensor:
    """Gather table rows by integer id; duplicate ids accumulate gradient."""
    if table.data.ndim != 2:
        raise ShapeError(f"embedding table must be 2-d, got {table.shape}")
    idx = np.asarray(ids, dtype=np.intp)
    if idx.ndim != 1:
        raise ShapeError("embedding ids must be a 1-d integer sequence")
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise ShapeError(
            f"embedding id out of range: table has {table.shape[0]} rows, "
            f"ids span [{idx.min()}, {idx.max()}]"
        )
    out_data = table.data[idx]

    def backprop(g):
        full = np.zeros_like(table.data)
        np.add.at(full, idx, g)
        _accum(table, full)

    return _node((table,), out_data, backprop, "embedding_lookup")


def contact_scores(h: Tensor, w_prod: Tensor, w_diff: Tensor, b: Tensor) -> Tensor:
    """Symmetric pair scores L_ij = (h_i*h_j) @ w_prod + b + |h_i - h_j| @ w_diff.

    h (n,d), w_prod and w_diff (d,1), b (1,) -> (n,n). The product term is
    one matmul; the difference term runs over CONTACT_BLOCK_ROWS rows at a
    time, so no (n*n, d) array is built. The result is 0.5 * (L + L^T),
    symmetric bit for bit. One tape node; with Gs = 0.5 * (G + G^T):
    dh = 2 (Gs h) * wp + 2 wd * sum_j Gs_aj sign(h_a - h_j) (sign(0) = 0),
    dwp = sum_i h_i * (Gs h)_i, dwd = sum_ij Gs_ij |h_i - h_j|, db = sum G.
    """
    if h.data.ndim != 2:
        raise ShapeError(f"contact_scores needs a 2-d h, got {h.shape}")
    n, d = h.shape
    if w_prod.shape != (d, 1) or w_diff.shape != (d, 1) or b.shape != (1,):
        raise ShapeError(f"contact_scores weights {w_prod.shape}/{w_diff.shape}/{b.shape} "
                         f"do not fit width {d}")
    hd, wp, wd = h.data, w_prod.data[:, 0], w_diff.data[:, 0]

    def blocks(upper: bool):
        # h_i - h_j for a block of rows i against every column j, or only
        # against j >= the block's first row; one buffer serves all blocks
        buf = np.empty(min(CONTACT_BLOCK_ROWS, n) * n * d)
        for lo in range(0, n, CONTACT_BLOCK_ROWS):
            hi, c = min(lo + CONTACT_BLOCK_ROWS, n), lo if upper else 0
            out = buf[: (hi - lo) * (n - c) * d].reshape(hi - lo, n - c, d)
            yield lo, hi, np.subtract(hd[lo:hi, None, :], hd[None, c:, :], out=out)

    # |h_i - h_j| @ wd is symmetric in (i, j): compute the upper triangle
    # (with the diagonal blocks) and mirror it
    dist = np.zeros((n, n))
    for lo, hi, diff in blocks(upper=True):
        np.abs(diff, out=diff)
        dist[lo:hi, lo:] = (diff.reshape(-1, d) @ wd).reshape(hi - lo, n - lo)
    scores = (hd * wp) @ hd.T + b.data
    scores += np.triu(dist) + np.triu(dist, 1).T
    out_data = 0.5 * (scores + scores.T)

    def backprop(g):
        gs = 0.5 * (g + g.T)
        gh = gs @ hd
        sign_sum = np.empty((n, d))
        dwd = np.zeros(d)
        for lo, hi, diff in blocks(upper=False):
            gblk = gs[lo:hi]
            sign_sum[lo:hi] = (gblk[:, None, :] @ np.sign(diff))[:, 0, :]
            np.abs(diff, out=diff)
            dwd += (gblk.reshape(1, -1) @ diff.reshape(-1, d))[0]
        _accum(h, 2.0 * gh * wp + 2.0 * wd * sign_sum)
        _accum(w_prod, (hd * gh).sum(axis=0)[:, None])
        _accum(w_diff, dwd[:, None])
        _accum(b, np.array([g.sum()]))

    return _node((h, w_prod, w_diff, b), out_data, backprop, "contact_scores")


def bce_with_logits_mean(logits: Tensor, labels) -> Tensor:
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
    out_data = np.asarray(per.mean())
    n = y.size

    def backprop(g):
        sig = np.where(z >= 0, 1.0 / (1.0 + np.exp(-z)), np.exp(z) / (1.0 + np.exp(z)))
        _accum(logits, float(g) * (sig - y) / n)

    return _node((logits,), out_data, backprop, "bce_with_logits_mean")
