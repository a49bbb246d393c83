"""Transformer encoder with injectable prompt tokens and a one-way mask.

Prompt vectors are prepended ahead of the embedded input (canonical layout:
prompt rows first). The binary mask M over the (m+n) x (m+n) attention grid
keeps input rows fully connected while each prompt row sees only itself, so
information flows from prompts into inputs and never back:

    M[i][j] = 0  iff  (i <= m and j > m) or (i, j <= m and i != j)   (1-based)

Two application modes exist. "additive" (default) adds a large negative
penalty to disallowed logits before the row softmax, so every attention row
still sums to 1. "literal" multiplies the already-normalised attention
matrix elementwise by M, which deliberately destroys row normalisation and
is kept for ablation. Inputs are never padded, so M is the whole mask.
encode builds the array its mode applies once. An encode records L+1 tape
nodes: numerics.encoder_input for the prompt and embedding rows, then one
numerics.encoder_layer per layer (all heads, residuals, layernorms and the
feed-forward block), each with a closed-form backward.

Prompt rows receive no position and no segment embedding, and they pass
through the same per-layer residual/layernorm/feed-forward block as every
other row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .errors import ConfigError, ContractError, ShapeError
from .numerics import MASK_NEG, Tensor
from .tokenizer import VOCAB_SIZE, TokenSequence

PROMPT_INIT_STD = 0.02
INIT_STD = 0.02

PAIR_TYPES = 7  # downstream interaction-type classification width
SS3_CLASSES = 3
SS8_CLASSES = 8


@dataclass
class ModelConfig:
    """Architecture-level settings consumed by the encoder."""

    d: int = 64
    layers: int = 2
    heads: int = 4
    max_len: int = 256
    mask_mode: str = "additive"
    prompt_names: tuple[str, ...] = ("Seq", "IC")

    def __post_init__(self):
        if self.d <= 0 or self.layers <= 0 or self.heads <= 0:
            raise ConfigError("d, layers and heads must be positive")
        if self.d % self.heads != 0:
            raise ConfigError(f"d={self.d} not divisible by heads={self.heads}")
        if self.mask_mode not in ("additive", "literal"):
            raise ConfigError(f"unknown mask_mode {self.mask_mode!r}")

    @classmethod
    def from_run_config(cls, cfg) -> "ModelConfig":
        return cls(
            d=cfg.d,
            layers=cfg.layers,
            heads=cfg.heads,
            max_len=cfg.max_len,
            mask_mode=cfg.mask_mode,
            prompt_names=cfg.prompt_names(),
        )


def build_mask(m: int, n: int) -> np.ndarray:
    """The binary (m+n) x (m+n) one-way mask for m prompts and n inputs,
    prompt rows first."""
    if m < 0:
        raise ConfigError(f"prompt count must be >= 0, got {m}")
    if n <= 0:
        raise ConfigError(f"input length must be >= 1, got {n}")
    size = m + n
    mat = np.ones((size, size), dtype=np.float64)
    if m:
        mat[:m, :] = 0.0
        mat[np.arange(m), np.arange(m)] = 1.0
    return mat


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

    def prompt_rows(self) -> Tensor:
        return nm.slice_rows(self.h, 0, self.m)

    def input_rows(self) -> Tensor:
        return nm.slice_rows(self.h, self.m, self.h.shape[0])

    def residue_rows(self) -> Tensor:
        """Rows of real residues only (CLS, EOS and prompts excluded)."""
        return nm.select_rows(self.h, self.m + self.seq.residue_positions())


class EncoderLayer:
    """Multi-head masked attention followed by the residual/LN/FF block."""

    # checkpoint names of `weights`, in the order numerics.encoder_layer takes them
    WEIGHT_NAMES = (
        "attn.wq", "attn.bq", "attn.wk", "attn.bk", "attn.wv", "attn.bv", "attn.wo", "attn.bo",
        "ln1.gain", "ln1.bias", "ff.w1", "ff.b1", "ff.w2", "ff.b2", "ln2.gain", "ln2.bias",
    )

    def __init__(self, d: int, heads: int, rng: np.random.Generator):
        self.heads = heads

        def w(shape):
            return Tensor(rng.normal(0.0, INIT_STD, shape), requires_grad=True)

        def zeros(shape):
            return Tensor(np.zeros(shape), requires_grad=True)

        def ones(shape):
            return Tensor(np.ones(shape), requires_grad=True)

        self.weights = (
            w((d, d)), zeros(d), w((d, d)), zeros(d), w((d, d)), zeros(d), w((d, d)), zeros(d),
            ones(d), zeros(d), w((d, 4 * d)), zeros(4 * d), w((4 * d, d)), zeros(d),
            ones(d), zeros(d),
        )

    def params(self, prefix: str) -> dict[str, Tensor]:
        return {f"{prefix}.{name}": t for name, t in zip(self.WEIGHT_NAMES, self.weights)}

    def forward(
        self,
        x: Tensor,
        mask: np.ndarray,
        mask_mode: str,
        collect: list | None = None,
    ) -> Tensor:
        """mask is the array mask_mode applies, built once per encode:
        additive: MASK_NEG at disallowed logits before softmax (rows sum to 1).
        literal: the binary mask times the softmax output (row mass <= 1).
        """
        return nm.encoder_layer(x, self.weights, self.heads, mask, mask_mode, collect)


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

        self.tok_table = w((VOCAB_SIZE, d))
        self.pos_table = w((config.max_len, d))
        self.seg_table = w((1, d))
        self.layers = [EncoderLayer(d, config.heads, rng) for _ in range(config.layers)]
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
        for i, layer in enumerate(self.layers):
            params.update(layer.params(f"layer{i}"))
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
        mode = self.config.mask_mode
        mask = build_mask(m, seq.length)
        if mode == "additive":
            mask = np.where(mask > 0, 0.0, MASK_NEG)
        collect: list | None = [] if collect_attn else None
        for layer in self.layers:
            x = layer.forward(x, mask, mode, collect)
        return EncoderOutput(h=x, m=m, seq=seq, attn=collect)

    def pool(self, out: EncoderOutput) -> Tensor:
        """Mean of real-residue rows; prompts, CLS and EOS excluded."""
        if out.seq.n_residues < 1:
            raise ContractError("pool needs at least one real residue")
        return nm.mean_over_rows(out.residue_rows())

    # -- heads --

    def mlm_logits(self, out: EncoderOutput, positions) -> Tensor:
        """Vocabulary logits at the given input positions, (|Y|, 25)."""
        pos = np.asarray(positions, dtype=np.intp)
        if pos.size == 0:
            raise ContractError("mlm_logits needs at least one target position")
        rows = nm.select_rows(out.h, out.m + pos)
        return nm.affine(rows, self.mlm_w, self.mlm_b)

    def pair_logits(self, pooled_p: Tensor, pooled_q: Tensor, kind: str = "types") -> Tensor:
        """Symmetric pair scores from two pooled vectors.

        kind "types" gives 7 interaction-type logits, "binary" one logit.
        Symmetry holds by construction: the feature is the elementwise
        product, which is commutative.
        """
        feat = nm.mul(pooled_p, pooled_q)
        if kind == "types":
            return nm.affine(feat, self.pair_w, self.pair_b)
        if kind == "binary":
            return nm.affine(feat, self.pair_bin_w, self.pair_bin_b)
        raise ConfigError(f"unknown pair head kind {kind!r}")

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
