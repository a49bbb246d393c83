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
    """The full embed (prompt rows first) -> masked layers stack, plus heads."""

    def __init__(self, config: ModelConfig, seed: int = 0):
        self.config = config
        rng = np.random.default_rng(seed)
        d = config.d

        def w(shape):
            return Tensor(rng.normal(0.0, INIT_STD, shape), requires_grad=True)

        def zeros(shape):
            return Tensor(np.zeros(shape), requires_grad=True)

        def ones(shape):
            return Tensor(np.ones(shape), requires_grad=True)

        self.tok_table = w((VOCAB_SIZE, d))
        self.pos_table = w((config.max_len, d))
        self.seg_table = w((1, d))
        # per layer, the 16 weights named by LAYER_WEIGHT_NAMES
        self.layers = [
            (w((d, d)), zeros(d), w((d, d)), zeros(d), w((d, d)), zeros(d), w((d, d)), zeros(d),
             ones(d), zeros(d), w((d, 4 * d)), zeros(4 * d), w((4 * d, d)), zeros(d),
             ones(d), zeros(d))
            for _ in range(config.layers)
        ]
        self.prompts = PromptSet()
        for name in config.prompt_names:
            self.prompts.register(name, Tensor(rng.normal(0.0, PROMPT_INIT_STD, d)))
        # task heads; all are plain affine maps on encoder representations
        self.mlm_w, self.mlm_b = w((d, VOCAB_SIZE)), zeros(VOCAB_SIZE)
        self.pair_w, self.pair_b = w((d, PAIR_TYPES)), zeros(PAIR_TYPES)
        self.pair_bin_w, self.pair_bin_b = w((d, 1)), zeros(1)
        self.contact_w_prod, self.contact_w_diff = w((d, 1)), w((d, 1))
        self.contact_b = zeros(1)
        self.ss3_w, self.ss3_b = w((d, SS3_CLASSES)), zeros(SS3_CLASSES)
        self.ss8_w, self.ss8_b = w((d, SS8_CLASSES)), zeros(SS8_CLASSES)
        self.regress_w, self.regress_b = w((d, 1)), zeros(1)

    # -- parameter registry (fixed, documented order) --

    def parameters(self) -> dict[str, Tensor]:
        """Insertion-ordered name -> tensor map; this order is the
        checkpoint serialisation order."""
        params: dict[str, Tensor] = {
            "embed.tok": self.tok_table,
            "embed.pos": self.pos_table,
            "embed.seg": self.seg_table,
        }
        for i, weights in enumerate(self.layers):
            params.update({f"layer{i}.{name}": t
                           for name, t in zip(LAYER_WEIGHT_NAMES, weights)})
        for name in self.prompts.names():
            params[f"prompt.{name}"] = self.prompts.get(name)
        params.update(
            {
                "head.mlm.w": self.mlm_w,
                "head.mlm.b": self.mlm_b,
                "head.pair.w": self.pair_w,
                "head.pair.b": self.pair_b,
                "head.pair_bin.w": self.pair_bin_w,
                "head.pair_bin.b": self.pair_bin_b,
                "head.contact.w_prod": self.contact_w_prod,
                "head.contact.w_diff": self.contact_w_diff,
                "head.contact.b": self.contact_b,
                "head.ss3.w": self.ss3_w,
                "head.ss3.b": self.ss3_b,
                "head.ss8.w": self.ss8_w,
                "head.ss8.b": self.ss8_b,
                "head.regress.w": self.regress_w,
                "head.regress.b": self.regress_b,
            }
        )
        return params

    def encoder_parameters(self) -> dict[str, Tensor]:
        """Parameters counted as 'the encoder' for freezing purposes."""
        return {
            name: t
            for name, t in self.parameters().items()
            if not name.startswith("prompt.") and not name.startswith("head.")
        }

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
        return nm.encoder_input(self.tok_table, self.seg_table, self.pos_table, seq.ids,
                                prompts)

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
        """Mean of real-residue rows; prompts, CLS and EOS excluded."""
        if out.seq.n_residues < 1:
            raise ContractError("pool needs at least one real residue")
        return nm.mean_over_rows(out.residue_rows())

    # -- heads --

    def pair_head(self, width: int) -> tuple[Tensor, Tensor]:
        """(w, b) of the binary (width 1) or interaction-type (PAIR_TYPES) head."""
        if width == 1:
            return self.pair_bin_w, self.pair_bin_b
        if width == PAIR_TYPES:
            return self.pair_w, self.pair_b
        raise ConfigError(f"no pair head has {width} logits (1 or {PAIR_TYPES})")

    def pair_logits(self, pooled_p: Tensor, pooled_q: Tensor, width: int) -> Tensor:
        """Symmetric pair scores from two pooled vectors, from the head that
        width picks. Symmetry holds by construction: the feature is the
        elementwise product, which is commutative."""
        return nm.affine(nm.mul(pooled_p, pooled_q), *self.pair_head(width))

    def contact_logits(self, out: EncoderOutput) -> Tensor:
        """Residue-residue contact logits, (n_res, n_res).

        Feature for pair (i, j) is [h_i * h_j, |h_i - h_j|], an affine map
        to one logit. numerics.contact_scores computes the product block as
        one matmul and the difference block over row blocks, never building
        per-pair feature rows, and symmetrises the result, so the matrix is
        symmetric bit for bit.
        """
        if out.seq.n_residues < 1:
            raise ContractError("contact_logits needs at least one residue")
        return nm.contact_scores(
            out.residue_rows(), self.contact_w_prod, self.contact_w_diff, self.contact_b
        )

    def token_logits(self, out: EncoderOutput, classes: int) -> Tensor:
        """Per-residue class logits for 3- or 8-state structure labels."""
        if classes == SS3_CLASSES:
            return nm.affine(out.residue_rows(), self.ss3_w, self.ss3_b)
        if classes == SS8_CLASSES:
            return nm.affine(out.residue_rows(), self.ss8_w, self.ss8_b)
        raise ConfigError(f"token classification supports 3 or 8 classes, got {classes}")

    def regress(self, pooled: Tensor) -> Tensor:
        """Scalar regression on a pooled sequence vector."""
        return nm.reshape(nm.affine(pooled, self.regress_w, self.regress_b), ())
