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

Each kernel formula (affine, layernorm, GELU, attention) is written once,
as an array-level forward and backward pair. The single-op primitives and
two fused nodes call them: encoder_input (prompt rows plus the three
embedding lookups) and encoder_layer (attention, residuals, layernorms
and the feed-forward block). An encoder with L layers therefore records
L+1 tape nodes per sequence. The fused nodes perform the same float
operations in the same order as the per-op chain, so their outputs and
gradients are bit for bit those of the chain.
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


# ---------------------------------------------------------------------------
# array-level kernels: one forward and one backward per formula, shared by
# the single-op primitives below and by the fused encoder nodes. Reductions
# call the ufuncs directly (np.add.reduce, np.maximum.reduce): the same
# operations in the same order as .sum/.mean/.max, without their wrappers.
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


def _layernorm_forward(x: np.ndarray, gain: np.ndarray, bias: np.ndarray,
                       eps: float = LAYERNORM_EPS):
    """Row layernorm of 2-d x: (out, xhat, invstd), the last two for the backward."""
    xhat = x - _row_mean(x)  # centred, scaled below
    var = _row_mean(np.square(xhat))
    invstd = 1.0 / np.sqrt(var + eps)
    xhat *= invstd
    out = xhat * gain
    out += bias
    return out, xhat, invstd


def _layernorm_backward(g: np.ndarray, gain: Tensor, bias: Tensor, xhat: np.ndarray,
                        invstd: np.ndarray, need_dx: bool = True) -> np.ndarray | None:
    if gain.requires_grad:
        _accum(gain, np.add.reduce(g * xhat, axis=0))
    if bias.requires_grad:
        _accum(bias, np.add.reduce(g, axis=0))
    if not need_dx:
        return None
    dxhat = g * gain.data
    m1 = _row_mean(dxhat)
    m2 = _row_mean(dxhat * xhat)
    return invstd * (dxhat - m1 - xhat * m2)


def _gelu_forward(x: np.ndarray):
    """Exact GELU: (out, cdf), cdf for the backward."""
    # out= arrays rather than `x / _SQRT2`, which is a numpy scalar (and no
    # valid out=) for a 0-d x
    cdf = np.divide(x, _SQRT2, out=np.empty_like(x))
    erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5
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


def _softmax_last_inplace(s: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, stabilised by max subtraction, written
    into s (which the caller owns) and returned."""
    s -= np.maximum.reduce(s, axis=-1, keepdims=True)
    np.exp(s, out=s)
    s /= np.add.reduce(s, axis=-1, keepdims=True)
    return s


def _split_heads(a: np.ndarray, heads: int) -> np.ndarray:
    """(n, d) -> contiguous (heads, n, d / heads)."""
    n, d = a.shape
    return np.ascontiguousarray(a.reshape(n, heads, d // heads).transpose(1, 0, 2))


def _merge_heads(a: np.ndarray) -> np.ndarray:
    """(heads, n, dh) -> C-ordered (n, heads * dh), as a copy."""
    heads, n, dh = a.shape
    return np.ascontiguousarray(a.transpose(1, 0, 2)).reshape(n, heads * dh)


def _attention_forward(q: np.ndarray, k: np.ndarray, v: np.ndarray, heads: int,
                       mask: np.ndarray, mask_mode: str, collect: list | None):
    """Masked multi-head attention of (n, d) arrays: (out, saved), where
    saved = (qh, kt, vh, y, w) holds what the backward needs."""
    n, d = q.shape
    if d % heads or mask.shape != (n, n):
        raise ShapeError(f"attention over {q.shape} got {heads} heads and mask {mask.shape}")
    if mask_mode not in ("additive", "literal"):
        raise ContractError(f"unknown mask_mode {mask_mode!r}")
    dh = d // heads
    qh, vh = _split_heads(q, heads), _split_heads(v, heads)
    kt = np.ascontiguousarray(_split_heads(k, heads).transpose(0, 2, 1))
    del q, k, v  # arrays the caller passed without keeping go before the score block
    s = qh @ kt
    s *= 1.0 / float(np.sqrt(dh))
    if mask_mode == "additive":
        s += mask
        y = w = _softmax_last_inplace(s)
    else:
        y = _softmax_last_inplace(s)
        w = y * mask
    if collect is not None:
        collect.append(list(w.copy()))
    return _merge_heads(w @ vh), (qh, kt, vh, y, w)


def _attention_backward(g: np.ndarray, mask: np.ndarray, mask_mode: str, saved):
    """(dq, dk, dv) of attention for upstream g, from _attention_forward's saved."""
    qh, kt, vh, y, w = saved
    heads, n, dh = qh.shape
    gh = g.reshape(n, heads, dh).transpose(1, 0, 2)
    dv = _merge_heads(w.transpose(0, 2, 1) @ gh)
    ds = gh @ vh.transpose(0, 2, 1)  # dW, turned into dS in place
    if mask_mode == "literal":
        ds *= mask
    ds -= np.add.reduce(ds * y, axis=-1, keepdims=True)
    np.multiply(y, ds, out=ds)
    ds *= 1.0 / float(np.sqrt(dh))
    dq = _merge_heads(ds @ kt.transpose(0, 2, 1))
    dk = _merge_heads((qh.transpose(0, 2, 1) @ ds).transpose(0, 2, 1))
    return dq, dk, dv


def _gather_backward(table: Tensor, idx: np.ndarray, g: np.ndarray) -> None:
    """Scatter-add g's rows into a zero gradient of table at idx."""
    if table.requires_grad:
        full = np.zeros_like(table.data)
        np.add.at(full, idx, g)
        _accum(table, full)


# ---------------------------------------------------------------------------
# single-op primitives built on those kernels


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
    if q.data.ndim != 2 or k.shape != q.shape or v.shape != q.shape:
        raise ShapeError(f"attention got q/k/v {q.shape}/{k.shape}/{v.shape}")
    out_data, saved = _attention_forward(q.data, k.data, v.data, heads, mask, mask_mode,
                                         collect)

    def backprop(g):
        dq, dk, dv = _attention_backward(g, mask, mask_mode, saved)
        _accum(v, dv)
        _accum(q, dq)
        _accum(k, dk)

    return _node((q, k, v), out_data, backprop, "multihead_attention")


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
    out_data, xhat, invstd = _layernorm_forward(x.data, gain.data, bias.data, eps)

    def backprop(g):
        dx = _layernorm_backward(g, gain, bias, xhat, invstd, x.requires_grad)
        if dx is not None:
            _accum(x, dx)

    return _node((x, gain, bias), out_data, backprop, "layernorm")


def gelu(x: Tensor) -> Tensor:
    """Exact (erf-based) GELU, applied elementwise."""
    out_data, cdf = _gelu_forward(x.data)

    def backprop(g):
        _accum(x, _gelu_backward(g, x.data, cdf))

    return _node((x,), out_data, backprop, "gelu")


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b. x (n,k) or (k,), w (k,m), b (m,)."""
    vector_in = x.data.ndim == 1
    xd = x.data[None, :] if vector_in else x.data
    if xd.ndim != 2 or w.data.ndim != 2 or xd.shape[1] != w.shape[0]:
        raise ShapeError(f"affine shapes {x.shape} and {w.shape} do not align")
    if b.shape != (w.shape[1],):
        raise ShapeError(f"affine bias shape {b.shape} does not match {w.shape}")
    out_data = _affine_forward(xd, w.data, b.data)
    if vector_in:
        out_data = out_data[0]

    def backprop(g):
        gx = _affine_backward(g[None, :] if vector_in else g, xd, w, b, x.requires_grad)
        if gx is not None:
            _accum(x, gx[0] if vector_in else gx)

    return _node((x, w, b), out_data, backprop, "affine")


def embedding_lookup(table: Tensor, ids) -> Tensor:
    """Gather table rows by integer id; duplicate ids accumulate gradient."""
    if table.data.ndim != 2:
        raise ShapeError(f"embedding table must be 2-d, got {table.shape}")
    idx = _checked_ids(ids, table.shape[0])
    out_data = table.data[idx]

    def backprop(g):
        _gather_backward(table, idx, g)

    return _node((table,), out_data, backprop, "embedding_lookup")


def _checked_ids(ids, rows: int) -> np.ndarray:
    idx = np.asarray(ids, dtype=np.intp)
    if idx.ndim != 1:
        raise ShapeError("embedding ids must be a 1-d integer sequence")
    if idx.size and (idx.min() < 0 or idx.max() >= rows):
        raise ShapeError(
            f"embedding id out of range: table has {rows} rows, "
            f"ids span [{idx.min()}, {idx.max()}]"
        )
    return idx


# ---------------------------------------------------------------------------
# fused encoder nodes: the same float operations in the same order as the
# chains of single-op primitives they replace, recorded as one tape node.
# Without a tape they build no closure, and encoder_layer lets q, k and v go
# once they are split into heads and the (heads, n, n) blocks go once the
# attention output exists, so a tape-free encode holds one score block.


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
    seg_idx = np.zeros(n, dtype=np.intp)
    pos_idx = _checked_ids(np.arange(n), pos_table.shape[0])
    out_data = np.empty((m + n, d))
    for i, p in enumerate(prompts):
        out_data[i] = p.data
    rows = out_data[m:]
    np.add(tok_table.data[idx], seg_table.data[seg_idx], out=rows)
    rows += pos_table.data[pos_idx]

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


def encoder_layer(
    x: Tensor,
    weights: Sequence[Tensor],
    heads: int,
    mask: np.ndarray,
    mask_mode: str,
    collect: list | None = None,
) -> Tensor:
    """One post-norm transformer encoder layer as one tape node.

    weights = (wq, bq, wk, bk, wv, bv, wo, bo, ln1_gain, ln1_bias,
    w1, b1, w2, b2, ln2_gain, ln2_bias), x (n, d):
        a = multihead_attention(x wq + bq, x wk + bk, x wv + bv) wo + bo
        h = layernorm(x + a; ln1),  out = layernorm(h + gelu(h w1 + b1) w2 + b2; ln2)
    with heads, mask, mask_mode and collect as in multihead_attention. The
    closed-form backward runs the single-op backwards in reverse order; the
    gradient reaches h as d_res2 + dh_ff and x as ((d_res1 + dx_v) + dx_k)
    + dx_q, the order in which the per-op tape summed them. Every
    intermediate the per-op chain checked is checked for finiteness.
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
        heads, mask, mask_mode, collect,
    )
    if not taped:
        saved = None  # the (heads, n, n) blocks go now, not at return
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
            d_f1 = _gelu_backward(_affine_backward(d_res2, act, w2, b2), f1, cdf)
            d_res1 = _layernorm_backward(d_res2 + _affine_backward(d_f1, h, w1, b1),
                                         ln1_gain, ln1_bias, xhat1, invstd1)
            dq, dk, dv = _attention_backward(_affine_backward(d_res1, att, wo, bo), mask,
                                             mask_mode, saved)
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
