"""Training objectives, gradient routing and the optimizer.

The total loss is

    L = L_conserve + lambda * L_inject,    L_inject = sum_t alpha_t * L_t

where L_conserve is the masked-token cross-entropy (sum reduction by
default) and each injection task contributes a weighted loss. Routing
(frozen_prompts) follows the paper's one rule: the sequence prompt Seq
learns from the conservation loss only and every other prompt, an
injected one included, from the injection tasks only; with routing off
every prompt learns from every source. The encoder (embeddings and
layers) learns from every source present and each head from its own
loss, by construction. Routing happens in the forward pass: while a
source's forward runs, each prompt outside its route enters as a
constant, so one backward sweep gives every parameter exactly its routed
gradient.

Each source records one loss node (numerics.cross_entropy_rows or
numerics.pair_bce) after the L+1 nodes of each encode, L the layer count.
The weights are no nodes: each loss node is a root of the sweep, seeded
with its source's coefficient, and the logged total is folded from the
losses as floats. A pretrain benchmark step records about 114 nodes,
against 287 for the per-sequence head and loss chain that
tests/conftest.py keeps as the nodes' oracle.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .errors import ConfigError, ContractError
from .numerics import Tape, Tensor
from .tokenizer import MlmBatch, TokenSequence

CONSERVE = "mlm"


@dataclass
class LossReport:
    """Per-step scalar record."""

    step: int
    l_conserve: float
    task_losses: dict[str, float]
    total: float
    wall_ms: float = 0.0

    def log_line(self, task_order: tuple[str, ...]) -> str:
        cells = [str(self.step), repr(self.l_conserve)]
        cells += [repr(self.task_losses.get(t, 0.0)) for t in task_order]
        cells += [repr(self.total), f"{self.wall_ms:.3f}"]
        return ",".join(cells)


def frozen_prompts(prompts: tuple[str, ...], source: str, routing: bool) -> frozenset[str]:
    """The prompts held constant in source's forward pass.

    With routing on, Seq learns from the conservation loss only and every
    other prompt from the injection tasks only: Seq is held for every task,
    and every other prompt for the conservation loss. With routing off,
    no prompt is held.
    """
    if not routing:
        return frozenset()
    return frozenset(n for n in prompts if (n == "Seq") != (source == CONSERVE))


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
    """Masked sequences, encoded with every prompt the model holds."""

    sequences: list[TokenSequence]
    masked: list[MlmBatch]


@dataclass
class PairTaskBatch:
    """Labeled pairs, encoded with every prompt the model holds."""

    name: str  # task name, e.g. "ppi"
    pairs: list[tuple[TokenSequence, TokenSequence]]
    labels: np.ndarray  # (k, 1) or (k, 7) 0/1 floats; the width picks the pair head


def _forward_mlm(
    model, batch: MlmTaskBatch, reduction: str, frozen: frozenset[str] = frozenset()
) -> Tensor:
    if reduction not in ("sum", "mean"):
        raise ConfigError(f"unknown reduction {reduction!r}")
    prompts = model.prompts.names()
    hs = [
        model.encode(TokenSequence(ids=masked.corrupted, source_id=seq.source_id), prompts,
                     frozen=frozen).h
        for seq, masked in zip(batch.sequences, batch.masked)
    ]
    rows = [len(prompts) + masked.positions for masked in batch.masked]
    targets = [masked.targets for masked in batch.masked]
    return nm.cross_entropy_rows(hs, rows, targets, model.mlm_w, model.mlm_b,
                                 mean=reduction == "mean")


def _forward_pairs(model, batch: PairTaskBatch, frozen: frozenset[str] = frozenset()) -> Tensor:
    if not batch.pairs:
        raise ContractError("empty pair batch")
    # labels must be (pairs, width); the width picks the head
    labels = np.asarray(batch.labels, dtype=np.float64)
    if not np.all((labels == 0.0) | (labels == 1.0)):
        raise ContractError("interaction labels must be 0 or 1")
    w, b = model.pair_head(labels.shape[-1])
    # each distinct protein is encoded once per step, in order of first use
    proteins: dict[str, TokenSequence] = {}
    pair_keys = []
    for pair in batch.pairs:
        pair_keys.append([seq.source_id or seq.ids.tobytes().hex() for seq in pair])
        for key, seq in zip(pair_keys[-1], pair):
            proteins.setdefault(key, seq)
    slot = {key: j for j, key in enumerate(proteins)}
    left, right = np.array([[slot[key] for key in keys] for keys in pair_keys]).T
    prompts = model.prompts.names()
    hs = [model.encode(seq, prompts, frozen=frozen).h for seq in proteins.values()]
    rows = [len(prompts) + seq.residue_positions() for seq in proteins.values()]
    return nm.pair_bce(hs, rows, left, right, w, b, labels)


def train_step(
    model,
    optimizer: Adam,
    mlm_batch: MlmTaskBatch | None,
    task_batches: list[PairTaskBatch],
    routing: bool,
    lambda_weight: float,
    alpha: dict[str, float],
    step: int = 0,
    mlm_reduction: str = "sum",
) -> LossReport:
    """One multi-task update: routed forward, one backward sweep, Adam.

    Each source s runs its forward with frozen_prompts(prompts, s, routing)
    held constant, so no prompt outside s's route is on s's part of the
    tape. Each source's loss node is a root of one backward sweep, seeded
    with its coefficient c_s (1 for the conservation loss, lambda*alpha_t
    for task t), so every parameter gets the sum of c_s * dL_s/dtheta over
    the sources that reach it, and those gradients go to Adam as they are.
    The logged total is L_conserve + (sum_t alpha_t * L_t) * lambda.
    """
    if mlm_batch is None and not task_batches:
        raise ContractError("train_step needs at least one task batch")
    if lambda_weight < 0:
        raise ConfigError("lambda must be >= 0")
    prompts = model.prompts.names()
    t0 = time.monotonic()

    tape = Tape()
    roots: list[tuple[Tensor, float]] = []
    l_conserve, inject, task_losses = 0.0, 0.0, {}
    with tape:
        if mlm_batch is not None:
            loss = _forward_mlm(model, mlm_batch, mlm_reduction,
                                frozen_prompts(prompts, CONSERVE, routing))
            l_conserve = float(loss.data)
            roots.append((loss, 1.0))
        for batch in task_batches:
            a = alpha.get(batch.name, 1.0)
            if a < 0:
                raise ConfigError(f"alpha for task {batch.name!r} must be >= 0")
            if batch.name in task_losses:
                raise ContractError(f"duplicate task batch {batch.name!r}")
            loss = _forward_pairs(model, batch, frozen_prompts(prompts, batch.name, routing))
            task_losses[batch.name] = float(loss.data)
            inject += task_losses[batch.name] * a
            roots.append((loss, lambda_weight * a))

    for p in optimizer.params.values():
        p.grad = None
    nm.backward(tape, roots)
    optimizer.step({name: p.grad for name, p in optimizer.params.items()})

    return LossReport(
        step=step,
        l_conserve=l_conserve,
        task_losses=task_losses,
        total=l_conserve + inject * lambda_weight,
        wall_ms=(time.monotonic() - t0) * 1000.0,
    )
