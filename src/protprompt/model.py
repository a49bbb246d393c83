"""Transformer encoder with injectable prompt tokens and a one-way mask.

Prompt vectors are prepended ahead of the embedded input (canonical layout:
prompt rows first). The binary mask M over the (m+n) x (m+n) attention grid
keeps input rows fully connected while each prompt row sees only itself, so
information flows from prompts into inputs and never back:

    M[i][j] = 0  iff  (i <= m and j > m) or (i, j <= m and i != j)   (1-based)

M = [[I_m, 0], [1, 1]] holds nothing but m, so attention takes m and applies
M by its structure; no mask array is built. A prompt row's only allowed key
is itself, so attention gives it its own value row, unscored, and its state
never depends on the input; an input row's softmax runs over every key.
Inputs are never padded, so M is the whole mask. An encode records L+1 tape
nodes: numerics.encoder_input for the prompt and embedding rows, then one
numerics.encoder_layer per layer (all heads, residuals, layernorms and the
feed-forward block), each with a closed-form backward. Attention
normalises after the value product, so no encode forms the attention maps;
tests/conftest.py rebuilds them from the same kernels as an oracle.

Prompts are a name -> Tensor map outside the token vocabulary, so no
prompt can collide with an input id. A name reaches an encode only from
that map or through the CLI's prompt gate, which refuses an unknown one.
Prompt rows receive no position and no segment embedding, and they pass
through the same per-layer residual/layernorm/feed-forward block as every
other row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics as nm
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

    d: int
    layers: int
    heads: int
    max_len: int
    prompt_names: tuple[str, ...]

    @classmethod
    def from_run_config(cls, cfg) -> "ModelConfig":
        return cls(
            d=cfg.d,
            layers=cfg.layers,
            heads=cfg.heads,
            max_len=cfg.max_len,
            prompt_names=cfg.prompt_names(),
        )


@dataclass
class EncoderOutput:
    """Final-layer representations plus the layout needed to slice them."""

    h: Tensor  # (m + n, d)
    m: int
    seq: TokenSequence

    def rows(self, positions=None) -> np.ndarray:
        """Row indices into h of seq's token positions, by default its real
        residues (CLS, EOS and prompts excluded). The one place that adds
        the prompt offset m."""
        if positions is None:
            positions = self.seq.residue_positions()
        return self.m + positions


class ProteinEncoder:
    """The full embed (prompt rows first) -> masked layers stack, plus heads.

    Each weight is held once in an ordered name -> Tensor map: encoder
    (embed.*, layer{i}.*) and heads (head.*) under their checkpoint names,
    prompts under their own names (prompt.{name} in a checkpoint).
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
        self.prompts: dict[str, Tensor] = {
            name: Tensor(rng.normal(0.0, PROMPT_INIT_STD, d), requires_grad=True)
            for name in config.prompt_names
        }
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
        prompts = {f"prompt.{name}": p for name, p in self.prompts.items()}
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

        Every name is one of self.prompts (the CLI's prompt gate checks
        --prompt and --prompts). A prompt named in frozen enters as a
        constant copy of its vector, so no gradient from this encode
        reaches the prompt itself.
        """
        prompts = [Tensor(self.prompts[name].data) if name in frozen else self.prompts[name]
                   for name in prompt_names]
        return nm.encoder_input(self.encoder["embed.tok"], self.encoder["embed.seg"],
                                self.encoder["embed.pos"], seq.ids, prompts)

    def encode(
        self,
        seq: TokenSequence,
        prompt_names: tuple[str, ...] = (),
        frozen: frozenset[str] = frozenset(),
    ) -> EncoderOutput:
        m = len(prompt_names)
        x = self.embed(seq, prompt_names, frozen)
        for weights in self.layers:
            x = nm.encoder_layer(x, weights, self.config.heads, m)
        return EncoderOutput(h=x, m=m, seq=seq)

    def pool(self, out: EncoderOutput) -> Tensor:
        """Mean of real-residue rows; prompts, CLS and EOS excluded, by
        pair_bce's pooling kernel."""
        return Tensor(nm._pool_forward(out.h.data, out.rows()))

    # -- heads --
    # Each head has one forward, shared by training and eval. contact_logits
    # is the contact_scores node itself; pool and the other heads score on
    # arrays through the kernels the loss nodes run (pair_bce's _pool_forward
    # and _pair_forward, cross_entropy_rows' _affine_forward) and return
    # constant Tensors.

    def pair_head(self, width: int) -> tuple[Tensor, Tensor]:
        """(w, b) of the binary (width 1) or interaction-type (PAIR_TYPES) head;
        parse_ppi_tsv admits no other label width."""
        return self.head("pair_bin" if width == 1 else "pair")

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
        return nm.contact_scores(out.h, out.rows(), *self.head("contact"))

    def token_logits(self, out: EncoderOutput, classes: int) -> Tensor:
        """Per-residue class logits for 3- or 8-state structure labels."""
        w, b = self.head(f"ss{classes}")
        return Tensor(nm._affine_forward(out.h.data[out.rows()], w.data, b.data))

    def regress(self, pooled: Tensor) -> Tensor:
        """Scalar regression on a pooled sequence vector."""
        w, b = self.head("regress")
        return Tensor(nm._affine_forward(pooled.data[None], w.data, b.data).reshape(()))
