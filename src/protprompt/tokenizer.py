"""Amino-acid vocabulary, sequence encoding and masked-token corruption.

The vocabulary has exactly 25 symbols with fixed contiguous ids:

    0 <cls>   1 <eos>   2 <pad>   3 <mask>
    4..23     the 20 standard residues in alphabetical order (ACDEFGHIKLMNPQRSTVWY)
    24        X (unknown residue)

encode folds ASCII case only: a non-ASCII letter is never a residue, even
one that str.upper maps to an ASCII letter.

Training corrupts with BERT's fixed 80/10/10 split (Devlin et al. 2019)
and numpy's default PCG64 generator seeded per call. The draw order is
fixed and part of the format: one uniform per residue position for
selection, then one uniform per selected position for the policy choice,
then one integer draw per position that needs a random replacement residue.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .checkpoint import atomic_write
from .errors import EncodingError, TruncationError

RESIDUES = "ACDEFGHIKLMNPQRSTVWY"
UNKNOWN = "X"

CLS_ID = 0
EOS_ID = 1
PAD_ID = 2  # never emitted by encode; kept because VOCAB_SIZE fixes the embedding shape
MASK_ID = 3
FIRST_RESIDUE_ID = 4
UNKNOWN_ID = 24
VOCAB_SIZE = 25

# BERT's split of the selected positions; the remaining 0.1 keep their token
MASK_SHARE, RANDOM_SHARE = 0.8, 0.1

SPECIAL_SYMBOLS = ("<cls>", "<eos>", "<pad>", "<mask>")
SYMBOLS = SPECIAL_SYMBOLS + tuple(RESIDUES) + (UNKNOWN,)

_CHAR_TO_ID = {ch: FIRST_RESIDUE_ID + i for i, ch in enumerate(RESIDUES)}
_CHAR_TO_ID[UNKNOWN] = UNKNOWN_ID
_CHAR_TO_ID.update({ch.lower(): tok for ch, tok in _CHAR_TO_ID.items()})


def write_vocab(path) -> None:
    """Write vocab.txt through atomic_write: one symbol per line, line
    number (0-based) = id."""
    with atomic_write(path) as fh:
        for sym in SYMBOLS:
            fh.write(sym + "\n")


@dataclass
class TokenSequence:
    """An encoded sequence: CLS + residues + EOS, never padded."""

    ids: np.ndarray

    @property
    def length(self) -> int:  # CLS and EOS included
        return self.ids.size

    def residue_positions(self) -> np.ndarray:
        """Positions of real residues (between CLS and EOS)."""
        return np.arange(1, self.length - 1)

    @property
    def n_residues(self) -> int:
        return self.length - 2


@dataclass
class MlmBatch:
    """One corrupted view of a TokenSequence."""

    corrupted: np.ndarray
    positions: np.ndarray  # positions whose original token must be predicted
    targets: np.ndarray  # original ids at those positions


def encode(residues: str, max_len: int, source_id: str = "") -> TokenSequence:
    """Encode a residue string as CLS + ids + EOS, len(residues) + 2 ids.

    Residue letters and X are read in either ASCII case; any other
    character, a non-ASCII letter that upper-cases to a residue ('ı', 'ſ',
    'ß') included, raises EncodingError naming source_id and its 1-based
    position. max_len is a limit, not a padded size: sequences longer than
    max_len - 2 raise TruncationError rather than being cut.
    """
    if len(residues) > max_len - 2:
        raise TruncationError(
            f"sequence {source_id or '<anonymous>'!s} has {len(residues)} residues "
            f"but max_len {max_len} leaves room for {max_len - 2}; refusing to truncate"
        )
    ids = np.empty(len(residues) + 2, dtype=np.int64)
    ids[0] = CLS_ID
    for i, ch in enumerate(residues):
        tok = _CHAR_TO_ID.get(ch)
        if tok is None:
            raise EncodingError(f"sequence {source_id or '<anonymous>'}: illegal residue "
                                f"{ch!r} at position {i + 1}")
        ids[1 + i] = tok
    ids[-1] = EOS_ID
    return TokenSequence(ids=ids)


def apply_mlm_mask(seq: TokenSequence, rate: float, seed) -> MlmBatch:
    """Corrupt residue positions for masked-token pretraining.

    Each real residue is independently selected with probability `rate`;
    a selected position becomes <mask> with MASK_SHARE, a uniform random
    standard residue with RANDOM_SHARE, and stays unchanged otherwise.
    Special tokens are never touched. At least one position is always
    selected: if no draw lands under `rate`, the position with the lowest
    draw is used, so every batch carries a prediction target.
    Deterministic given the seed.
    """
    rng = np.random.default_rng(seed)
    pos = seq.residue_positions()
    draws = rng.random(pos.size)
    selected = pos[draws < rate]
    if selected.size == 0:
        selected = pos[[int(np.argmin(draws))]]
    corrupted = seq.ids.copy()
    targets = seq.ids[selected].copy()
    policy = rng.random(selected.size)
    need_random = policy >= MASK_SHARE
    need_random &= policy < MASK_SHARE + RANDOM_SHARE
    replacements = rng.integers(0, len(RESIDUES), size=int(need_random.sum()))
    corrupted[selected[policy < MASK_SHARE]] = MASK_ID
    corrupted[selected[need_random]] = FIRST_RESIDUE_ID + replacements
    # the other selected positions keep their token, still prediction targets
    return MlmBatch(corrupted=corrupted, positions=selected, targets=targets)
