"""Transformer encoder with injectable prompt tokens and a one-way mask.

Prompt vectors are prepended ahead of the embedded input (canonical layout:
prompt rows first). The binary mask M over the (m+n) x (m+n) attention grid
keeps input rows fully connected while each prompt row sees only itself, so
information flows from prompts into inputs and never back:

    M[i][j] = 0  iff  (i <= m and j > m) or (i, j <= m and i != j)   (1-based)

M = [[I_m, 0], [1, 1]] holds nothing but m, so attention takes m and applies
M by its structure; no mask array is built. Each row's softmax runs over its
allowed logits only: rows sum to 1 and a prompt row weighs itself exactly
1.0, so its state never depends on the input. Inputs are never padded, so M
is the whole mask. An encode records L+1 tape nodes: numerics.encoder_input
for the prompt and embedding rows, then one numerics.encoder_layer per layer
(all heads, residuals, layernorms and the feed-forward block), each with a
closed-form backward.

Prompt rows receive no position and no segment embedding, and they pass
through the same per-layer residual/layernorm/feed-forward block as every
other row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .errors import ConfigError, ContractError, ShapeError
from .numerics import Tensor
from .tokenizer import VOCAB_SIZE, TokenSequence

PROMPT_INIT_STD = 0.02
INIT_STD = 0.02

PAIR_TYPES = 7  # downstream interaction-type classification width
SS3_CLASSES = 3
SS8_CLASSES = 8

# checkpoint names of an encoder layer's weights, in the order
# numerics.encoder_layer takes them
LAYER_WEIGHT_NAMES = (
    "attn.wq", "attn.bq", "attn.wk", "attn.bk", "attn.wv", "attn.bv", "attn.wo", "attn.bo",
    "ln1.gain", "ln1.bias", "ff.w1", "ff.b1", "ff.w2", "ff.b2", "ln2.gain", "ln2.bias",
)


@dataclass
class ModelConfig:
    """Architecture-level settings consumed by the encoder."""

    d: int = 64
    layers: int = 2
    heads: int = 4
    max_len: int = 256
    prompt_names: tuple[str, ...] = ("Seq", "IC")

    def __post_init__(self):
        if self.d <= 0 or self.layers <= 0 or self.heads <= 0:
            raise ConfigError("d, layers and heads must be positive")
        if self.d % self.heads != 0:
            raise ConfigError(f"d={self.d} not divisible by heads={self.heads}")

    @classmethod
    def from_run_config(cls, cfg) -> "ModelConfig":
        return cls(
            d=cfg.d,
            layers=cfg.layers,
            heads=cfg.heads,
            max_len=cfg.max_len,
            prompt_names=cfg.prompt_names(),
        )


class PromptSet:
    """Named, ordered collection of learnable prompt vectors.

    Prompts live outside the token vocabulary, so they can never collide
    with an input id; collisions are only possible on names and are errors.
    """

    def __init__(self):
        self._vectors: dict[str, Tensor] = {}

    def register(self, name: str, vector: Tensor) -> None:
        if name in self._vectors:
            raise ConfigError(f"prompt name collision: {name!r} already registered")
        if vector.data.ndim != 1:
            raise ShapeError(f"prompt {name!r} must be a vector, got {vector.shape}")
        vector.requires_grad = True
        self._vectors[name] = vector

    def names(self) -> tuple[str, ...]:
        return tuple(self._vectors)

    def get(self, name: str) -> Tensor:
        if name not in self._vectors:
            raise ConfigError(f"unknown prompt {name!r}; registered: {list(self._vectors)}")
        return self._vectors[name]

    def __len__(self) -> int:
        return len(self._vectors)


@dataclass
class EncoderOutput:
    """Final-layer representations plus the layout needed to slice them."""

    h: Tensor  # (m + n, d)
    m: int
    seq: TokenSequence
    attn: list | None = None  # per layer, per head attention rows (numpy)

    def residue_rows(self) -> Tensor:
        """Rows of real residues only (CLS, EOS and prompts excluded)."""
        return nm.select_rows(self.h, self.m + self.seq.residue_positions())


class ProteinEncoder:
    """The full embed (prompt rows first) -> masked layers stack, plus heads.

    Each weight is held once, under its checkpoint name: encoder (embed.*,
    layer{i}.*) and heads (head.*) are ordered name -> Tensor maps, and the
    prompts live in their PromptSet.
    """

    def __init__(self, config: ModelConfig, seed: int = 0):
        self.config = config
        rng = np.random.default_rng(seed)
        d, f = config.d, 4 * config.d

        def w(shape):
            return Tensor(rng.normal(0.0, INIT_STD, shape), requires_grad=True)

        def zeros(shape):
            return Tensor(np.zeros(shape), requires_grad=True)

        def ones(shape):
            return Tensor(np.ones(shape), requires_grad=True)

        # tensors are created in table order, so the draws follow it
        self.encoder: dict[str, Tensor] = {
            "embed.tok": w((VOCAB_SIZE, d)),
            "embed.pos": w((config.max_len, d)),
            "embed.seg": w((1, d)),
        }
        for i in range(config.layers):
            self.encoder.update(zip(
                (f"layer{i}.{name}" for name in LAYER_WEIGHT_NAMES),
                (w((d, d)), zeros(d), w((d, d)), zeros(d), w((d, d)), zeros(d), w((d, d)),
                 zeros(d), ones(d), zeros(d), w((d, f)), zeros(f), w((f, d)), zeros(d),
                 ones(d), zeros(d)),
            ))
        # per layer, its weights in the order numerics.encoder_layer takes them
        self.layers = [tuple(self.encoder[f"layer{i}.{name}"] for name in LAYER_WEIGHT_NAMES)
                       for i in range(config.layers)]
        self.prompts = PromptSet()
        for name in config.prompt_names:
            self.prompts.register(name, Tensor(rng.normal(0.0, PROMPT_INIT_STD, d)))
        # task heads; all are plain affine maps on encoder representations
        self.heads: dict[str, Tensor] = {
            "head.mlm.w": w((d, VOCAB_SIZE)), "head.mlm.b": zeros(VOCAB_SIZE),
            "head.pair.w": w((d, PAIR_TYPES)), "head.pair.b": zeros(PAIR_TYPES),
            "head.pair_bin.w": w((d, 1)), "head.pair_bin.b": zeros(1),
            "head.contact.w_prod": w((d, 1)), "head.contact.w_diff": w((d, 1)),
            "head.contact.b": zeros(1),
            "head.ss3.w": w((d, SS3_CLASSES)), "head.ss3.b": zeros(SS3_CLASSES),
            "head.ss8.w": w((d, SS8_CLASSES)), "head.ss8.b": zeros(SS8_CLASSES),
            "head.regress.w": w((d, 1)), "head.regress.b": zeros(1),
        }

    def parameters(self) -> dict[str, Tensor]:
        """Insertion-ordered name -> tensor map: encoder, prompts, heads. This
        order is the checkpoint serialisation order."""
        prompts = {f"prompt.{name}": self.prompts.get(name) for name in self.prompts.names()}
        return {**self.encoder, **prompts, **self.heads}

    def head(self, name: str) -> tuple[Tensor, ...]:
        """The weights of head.{name}.*, in table order: (w, b), or
        (w_prod, w_diff, b) for the contact head."""
        prefix = f"head.{name}."
        return tuple(t for key, t in self.heads.items() if key.startswith(prefix))

    # -- forward pieces --

    def embed(
        self, seq: TokenSequence, prompt_names: tuple[str, ...] = (),
        frozen: frozenset[str] = frozenset(),
    ) -> Tensor:
        """Prompt rows (no position/segment embedding), then the token +
        segment + position embedding of seq, as one tape node.

        A prompt named in frozen enters as a constant copy of its vector,
        so no gradient from this encode reaches the prompt itself.
        """
        n = seq.ids.size
        if n > self.config.max_len:
            raise ShapeError(
                f"sequence of {n} tokens exceeds position table of {self.config.max_len}"
            )
        prompts = []
        for name in prompt_names:
            vec = self.prompts.get(name)
            prompts.append(Tensor(vec.data) if name in frozen else vec)
        return nm.encoder_input(self.encoder["embed.tok"], self.encoder["embed.seg"],
                                self.encoder["embed.pos"], seq.ids, prompts)

    def encode(
        self,
        seq: TokenSequence,
        prompt_names: tuple[str, ...] = (),
        collect_attn: bool = False,
        frozen: frozenset[str] = frozenset(),
    ) -> EncoderOutput:
        m = len(prompt_names)
        x = self.embed(seq, prompt_names, frozen)
        collect: list | None = [] if collect_attn else None
        for weights in self.layers:
            x = nm.encoder_layer(x, weights, self.config.heads, m, collect)
        return EncoderOutput(h=x, m=m, seq=seq, attn=collect)

    def pool(self, out: EncoderOutput) -> Tensor:
        """Mean of real-residue rows; prompts, CLS and EOS excluded, by
        pair_bce's pooling kernel."""
        if out.seq.n_residues < 1:
            raise ContractError("pool needs at least one real residue")
        return Tensor(nm._pool_forward(out.h.data, out.m + out.seq.residue_positions()))

    # -- heads --
    # Each head has one forward, shared by training and eval. contact_logits
    # is the contact_scores node itself; pool and the other heads score on
    # arrays through the kernels the loss nodes run (pair_bce's _pool_forward
    # and _pair_forward, cross_entropy_rows' _affine_forward) and return
    # constant Tensors.

    def pair_head(self, width: int) -> tuple[Tensor, Tensor]:
        """(w, b) of the binary (width 1) or interaction-type (PAIR_TYPES) head."""
        if width == 1:
            return self.head("pair_bin")
        if width == PAIR_TYPES:
            return self.head("pair")
        raise ConfigError(f"no pair head has {width} logits (1 or {PAIR_TYPES})")

    def pair_logits(self, pooled_p: Tensor, pooled_q: Tensor, width: int) -> Tensor:
        """Symmetric pair scores from two pooled vectors, from the head that
        width picks. Symmetry holds by construction: the feature is the
        elementwise product, which is commutative. The logits are bit for bit
        those pair_bce computes for the pair in any batch."""
        w, b = self.pair_head(width)
        z, _ = nm._pair_forward(pooled_p.data[None], pooled_q.data[None], w.data, b.data)
        return Tensor(z[0])

    def contact_logits(self, out: EncoderOutput) -> Tensor:
        """Residue-residue contact logits, (n_res, n_res).

        Feature for pair (i, j) is [h_i * h_j, |h_i - h_j|], an affine map
        to one logit. numerics.contact_scores computes the product block as
        one matmul and the difference block, as 2 max(h_i, h_j) - h_i - h_j,
        over blocks of diagonals, never building per-pair feature rows, and
        symmetrises the result, so the matrix is symmetric bit for bit.
        """
        if out.seq.n_residues < 1:
            raise ContractError("contact_logits needs at least one residue")
        return nm.contact_scores(out.residue_rows(), *self.head("contact"))

    def token_logits(self, out: EncoderOutput, classes: int) -> Tensor:
        """Per-residue class logits for 3- or 8-state structure labels."""
        if classes not in (SS3_CLASSES, SS8_CLASSES):
            raise ConfigError(f"token classification supports 3 or 8 classes, got {classes}")
        w, b = self.head(f"ss{classes}")
        rows = out.h.data[out.m + out.seq.residue_positions()]
        return Tensor(nm._affine_forward(rows, w.data, b.data))

    def regress(self, pooled: Tensor) -> Tensor:
        """Scalar regression on a pooled sequence vector."""
        w, b = self.head("regress")
        return Tensor(nm._affine_forward(pooled.data[None], w.data, b.data).reshape(()))
