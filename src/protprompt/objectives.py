"""Training objectives, gradient routing and the optimizer.

The total loss is

    L = L_conserve + lambda * L_inject,    L_inject = sum_t alpha_t * L_t

where L_conserve is the masked-token cross-entropy (sum reduction by
default) and each injection task contributes a weighted loss. Routing
decides which loss sources may update which prompts: by default the
sequence prompt learns from the conservation loss only and every other
prompt from the injection tasks only; with routing off every prompt learns
from every source. The encoder (embeddings and layers) learns from every
source present and each head from its own loss, by construction. Routing
happens in the forward pass: while a source's forward runs, each prompt
outside its route enters as a constant, so one backward sweep of the
weighted total gives every parameter exactly its routed gradient.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import numerics as nm
from .errors import ConfigError, ContractError, NumericsError
from .numerics import Tape, Tensor
from .tokenizer import MlmBatch, TokenSequence

CONSERVE = "mlm"


def mlm_loss(logits: Tensor, targets, reduction: str = "sum") -> Tensor:
    """Masked-token cross-entropy: -sum(log q(y)) over target positions.

    reduction "sum" (default) matches the pretraining definition; "mean"
    divides by the number of targets.
    """
    t = np.asarray(targets, dtype=np.intp)
    if t.size == 0:
        raise ContractError("mlm_loss needs at least one target")
    if logits.data.ndim != 2 or logits.shape[0] != t.size:
        raise ContractError(f"logits shape {logits.shape} does not match {t.size} targets")
    logp = nm.log_softmax_rows(logits)
    chosen = nm.pick(logp, np.arange(t.size, dtype=np.intp), t)
    loss = nm.scale(nm.sum_all(chosen), -1.0)
    if reduction == "sum":
        return loss
    if reduction == "mean":
        return nm.scale(loss, 1.0 / t.size)
    raise ConfigError(f"unknown reduction {reduction!r}")


def ppi_loss(logits: Tensor, labels) -> Tensor:
    """Mean binary cross-entropy on interaction logits (1 or 7 slots)."""
    y = np.asarray(labels, dtype=np.float64)
    if not np.all((y == 0.0) | (y == 1.0)):
        raise ContractError("interaction labels must be 0 or 1")
    return nm.bce_with_logits_mean(logits, y)


def injection_loss(task_losses: dict[str, Tensor], alpha: dict[str, float]) -> Tensor:
    """Weighted sum of task losses in insertion order."""
    total: Tensor | None = None
    for name, loss in task_losses.items():
        a = alpha.get(name, 1.0)
        if a < 0:
            raise ConfigError(f"alpha for task {name!r} must be >= 0")
        term = nm.scale(loss, a)
        total = term if total is None else nm.add(total, term)
    if total is None:
        return Tensor(0.0)
    return total


def total_loss(l_conserve: Tensor, l_inject: Tensor, lambda_weight: float) -> Tensor:
    if lambda_weight < 0:
        raise ConfigError("lambda must be >= 0")
    return nm.add(l_conserve, nm.scale(l_inject, lambda_weight))


@dataclass
class LossReport:
    """Per-step scalar record; total is recomputable from the parts."""

    step: int
    l_conserve: float
    task_losses: dict[str, float]
    l_inject: float
    total: float
    lambda_weight: float
    alpha: dict[str, float]
    wall_ms: float = 0.0

    def recompute_total(self) -> float:
        """Re-fold the decomposition in the same float order as training."""
        inject = None
        for name, val in self.task_losses.items():
            term = val * self.alpha.get(name, 1.0)
            inject = term if inject is None else inject + term
        if inject is None:
            inject = 0.0
        return self.l_conserve + inject * self.lambda_weight

    def log_line(self, task_order: tuple[str, ...]) -> str:
        cells = [str(self.step), repr(self.l_conserve)]
        cells += [repr(self.task_losses.get(t, 0.0)) for t in task_order]
        cells += [repr(self.total), f"{self.wall_ms:.3f}"]
        return ",".join(cells)


@dataclass
class RoutingPolicy:
    """Which loss sources may update which prompts.

    prompt_routes maps prompt name -> set of loss names ("mlm" or a task
    name). An empty route freezes that prompt. The encoder and heads are
    not routed: they learn from every source whose loss reaches them.
    """

    prompt_routes: dict[str, frozenset[str]]

    def validate(self, prompt_names: tuple[str, ...]) -> None:
        missing = [n for n in prompt_names if n not in self.prompt_routes]
        if missing:
            raise ConfigError(f"routing policy misses prompts {missing}")
        extra = [n for n in self.prompt_routes if n not in prompt_names]
        if extra:
            raise ConfigError(f"routing policy names unknown prompts {extra}")

    def frozen(self, source: str) -> frozenset[str]:
        """Prompts whose route excludes source: constants in its forward pass."""
        return frozenset(n for n, route in self.prompt_routes.items() if source not in route)


def default_policy(prompt_names: tuple[str, ...], task_names: tuple[str, ...]) -> RoutingPolicy:
    """Seq learns from conservation, every other prompt from all injection
    tasks."""
    routes: dict[str, frozenset[str]] = {}
    for name in prompt_names:
        if name == "Seq":
            routes[name] = frozenset({CONSERVE})
        else:
            routes[name] = frozenset(task_names)
    return RoutingPolicy(prompt_routes=routes)


def open_policy(prompt_names: tuple[str, ...], task_names: tuple[str, ...]) -> RoutingPolicy:
    """Routing disabled: every source updates every prompt."""
    everything = frozenset({CONSERVE, *task_names})
    return RoutingPolicy(prompt_routes={n: everything for n in prompt_names})


class Adam:
    """Adam with bias correction; beta 0.9/0.999, eps 1e-8, no weight decay.

    warmup_updates > 0 scales the rate linearly from lr/warmup to lr over
    the first warmup steps, constant afterwards.
    """

    def __init__(
        self,
        params: dict[str, Tensor],
        lr: float = 1e-5,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        warmup_updates: int = 0,
    ):
        if lr <= 0 or eps <= 0:
            raise ConfigError("lr and eps must be positive")
        if not (0 <= betas[0] < 1 and 0 <= betas[1] < 1):
            raise ConfigError(f"betas must lie in [0, 1), got {betas}")
        self.params = dict(params)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.warmup_updates = warmup_updates
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in self.params.items()}

    def step(self, grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        if self.warmup_updates > 0 and self.t <= self.warmup_updates:
            rate = self.lr * self.t / self.warmup_updates
        else:
            rate = self.lr
        b1c = 1.0 - self.beta1**self.t
        b2c = 1.0 - self.beta2**self.t
        for name, p in self.params.items():
            g = grads.get(name)
            if g is None:
                g = np.zeros_like(p.data)
            self.m[name] = self.beta1 * self.m[name] + (1.0 - self.beta1) * g
            self.v[name] = self.beta2 * self.v[name] + (1.0 - self.beta2) * (g * g)
            mhat = self.m[name] / b1c
            vhat = self.v[name] / b2c
            p.data -= rate * mhat / (np.sqrt(vhat) + self.eps)

    def state_entries(self) -> dict[str, np.ndarray]:
        """Training state in checkpoint form (reserved "opt." prefix)."""
        entries: dict[str, np.ndarray] = {"opt.step": np.asarray(float(self.t))}
        for name in self.params:
            entries[f"opt.m.{name}"] = self.m[name]
            entries[f"opt.v.{name}"] = self.v[name]
        return entries

    def load_state_entries(self, entries: dict[str, np.ndarray]) -> None:
        if "opt.step" in entries:
            self.t = int(entries["opt.step"])
        for name in self.params:
            if f"opt.m.{name}" in entries:
                self.m[name] = entries[f"opt.m.{name}"].copy()
            if f"opt.v.{name}" in entries:
                self.v[name] = entries[f"opt.v.{name}"].copy()


@dataclass
class MlmTaskBatch:
    sequences: list[TokenSequence]
    masked: list[MlmBatch]
    prompt_names: tuple[str, ...] = ()


@dataclass
class PairTaskBatch:
    name: str  # task name, e.g. "ppi"
    pairs: list[tuple[TokenSequence, TokenSequence]]
    labels: np.ndarray  # (k, 1) or (k, 7) 0/1 floats
    kind: str = "binary"  # pair head variant
    prompt_names: tuple[str, ...] = ()


def _forward_mlm(
    model, batch: MlmTaskBatch, reduction: str, frozen: frozenset[str] = frozenset()
) -> Tensor:
    if not batch.sequences:
        raise ContractError("empty masked-token batch")
    loss: Tensor | None = None
    for seq, masked in zip(batch.sequences, batch.masked):
        corrupted = TokenSequence(ids=masked.corrupted, source_id=seq.source_id)
        out = model.encode(corrupted, batch.prompt_names, frozen=frozen)
        logits = model.mlm_logits(out, masked.positions)
        term = mlm_loss(logits, masked.targets, reduction)
        loss = term if loss is None else nm.add(loss, term)
    return loss


def _forward_pairs(model, batch: PairTaskBatch, frozen: frozenset[str] = frozenset()) -> Tensor:
    if not batch.pairs:
        raise ContractError("empty pair batch")
    pooled: dict[str, Tensor] = {}

    def pool_of(seq: TokenSequence) -> Tensor:
        # each distinct protein is encoded once per step
        key = seq.source_id or seq.ids.tobytes().hex()
        if key not in pooled:
            pooled[key] = model.pool(model.encode(seq, batch.prompt_names, frozen=frozen))
        return pooled[key]

    logit_rows = [
        nm.reshape(model.pair_logits(pool_of(p), pool_of(q), batch.kind), (1, -1))
        for p, q in batch.pairs
    ]
    logits = nm.concat_rows(logit_rows)
    labels = np.asarray(batch.labels, dtype=np.float64).reshape(logits.shape)
    return ppi_loss(logits, labels)


def train_step(
    model,
    optimizer: Adam,
    mlm_batch: MlmTaskBatch | None,
    task_batches: list[PairTaskBatch],
    policy: RoutingPolicy,
    lambda_weight: float,
    alpha: dict[str, float],
    step: int = 0,
    mlm_reduction: str = "sum",
) -> LossReport:
    """One multi-task update: routed forward, one backward sweep, Adam.

    Each source s runs its forward with policy.frozen(s) held constant, so
    no prompt outside s's route is on s's part of the tape. One backward
    sweep of the weighted total then gives every parameter the sum of
    c_s * dL_s/dtheta over the sources that reach it (c_s = 1 for the
    conservation loss, lambda*alpha_t for task t), and those gradients go
    to Adam as they are.
    """
    if mlm_batch is None and not task_batches:
        raise ContractError("train_step needs at least one task batch")
    policy.validate(model.prompts.names())
    t0 = time.monotonic()

    tape = Tape()
    with tape:
        losses: dict[str, Tensor] = {}
        if mlm_batch is not None:
            losses[CONSERVE] = _forward_mlm(
                model, mlm_batch, mlm_reduction, policy.frozen(CONSERVE)
            )
        task_tensors: dict[str, Tensor] = {}
        for batch in task_batches:
            if batch.name in task_tensors:
                raise ContractError(f"duplicate task batch {batch.name!r}")
            task_tensors[batch.name] = _forward_pairs(model, batch, policy.frozen(batch.name))
        losses.update(task_tensors)
        l_inject_t = injection_loss(task_tensors, alpha)
        l_conserve_t = losses.get(CONSERVE)
        total_t = total_loss(
            l_conserve_t if l_conserve_t is not None else Tensor(0.0),
            l_inject_t,
            lambda_weight,
        )

    for source, loss_t in losses.items():
        if not np.isfinite(loss_t.data).all():
            raise NumericsError(f"non-finite {source} loss at step {step}; aborting")
    for p in optimizer.params.values():
        p.grad = None
    nm.backward(tape, total_t)
    optimizer.step({name: p.grad for name, p in optimizer.params.items()})

    l_conserve = float(l_conserve_t.data) if l_conserve_t is not None else 0.0
    task_vals = {name: float(t.data) for name, t in task_tensors.items()}
    l_inject = float(l_inject_t.data)
    total = float(total_t.data)
    return LossReport(
        step=step,
        l_conserve=l_conserve,
        task_losses=task_vals,
        l_inject=l_inject,
        total=total,
        lambda_weight=lambda_weight,
        alpha=dict(alpha),
        wall_ms=(time.monotonic() - t0) * 1000.0,
    )
