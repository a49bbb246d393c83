"""Evaluation metrics and the embedding-shift probe.

Contact precision follows the CASP convention: pairs (i, j), i < j, are
bucketed by sequence separation j - i into short [6, 12), medium [12, 24)
and long [24, inf); separations below 6 are never scored. precision@L/2
takes the floor(L/2) highest-scoring eligible pairs with deterministic
lexicographic (i, j) tie-breaking.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .data import ContactMap
from .errors import ContractError


@dataclass(frozen=True)
class RangeClass:
    """Sequence-separation bucket; max_sep=None means unbounded."""

    min_sep: int
    max_sep: int | None


SHORT = RangeClass(6, 11)
MEDIUM = RangeClass(12, 23)
LONG = RangeClass(24, None)
RANGE_CLASSES = {"short": SHORT, "medium": MEDIUM, "long": LONG}


class ContactPrecision(NamedTuple):
    precision: float
    truncated: bool  # fewer eligible pairs than floor(L/2)


def precision_at_l_half(
    scores: np.ndarray, truth: ContactMap, range_class: RangeClass
) -> ContactPrecision:
    """Fraction of true contacts among the floor(L/2) top-scoring pairs.

    scores is an (n, n) real matrix; only the class's band of the upper
    triangle is read. The eligible pairs are built from that band, row i
    holding j = i+min_sep ... min(i+max_sep, n-1), in (i, j) order, so time
    and memory grow with the pair count, not with n^2. Ties break
    lexicographically by (i, j). If fewer eligible pairs exist than
    floor(L/2), all of them are scored and the result is flagged.
    """
    scores = np.asarray(scores, dtype=np.float64)
    n = truth.n
    if scores.shape != (n, n):
        raise ContractError(f"scores shape {scores.shape} does not match map n={n}")
    k = n // 2
    lo, hi = range_class.min_sep, range_class.max_sep
    rows = np.arange(n)
    last = n - 1 if hi is None else np.minimum(rows + hi, n - 1)
    counts = np.maximum(last - rows - lo + 1, 0)
    ii = np.repeat(rows, counts)
    # pair p lies in row i, whose pairs start at p = start_i with j = i + lo
    jj = np.repeat(rows + lo - (np.cumsum(counts) - counts), counts)
    jj += np.arange(jj.size)
    if ii.size == 0 or k == 0:
        return ContactPrecision(precision=0.0, truncated=True)
    # rank by score descending, then (i, j) ascending: the pairs are already
    # in (i, j) order, so a stable sort of the candidates that can reach the
    # top `take` (every score at least the take-th best) breaks ties by it.
    # `not >` keeps NaN scores as candidates; they sort last, as in a full sort
    neg = -scores[ii, jj]
    take = min(k, ii.size)
    cut = np.partition(neg, take - 1)[take - 1]
    cand = np.flatnonzero(~(neg > cut))
    top = cand[np.argsort(neg[cand], kind="stable")[:take]]
    top_i, top_j = ii[top], jj[top]
    hits = int(truth.bits[top_i, top_j].sum())
    return ContactPrecision(precision=hits / take, truncated=take < k)


def micro_f1(pred, truth) -> float:
    """Micro-averaged F1 over all label slots pooled; 0/0 defined as 0. Labels
    are 0/1: predictions are logits > 0 and parse_ppi_tsv checks the truth."""
    p = np.asarray(pred, dtype=np.int64)
    t = np.asarray(truth, dtype=np.int64)
    if p.shape != t.shape:
        raise ContractError(f"pred shape {p.shape} does not match truth {t.shape}")
    tp = int(np.sum((p == 1) & (t == 1)))
    fp = int(np.sum((p == 1) & (t == 0)))
    fn = int(np.sum((p == 0) & (t == 1)))
    denom = 2 * tp + fp + fn
    return 0.0 if denom == 0 else 2 * tp / denom


def q_accuracy(pred, truth) -> float:
    """Per-residue accuracy of 3- or 8-state labels. Both vectors are non-empty
    (readers refuse empty files and rows) and hold labels below --classes:
    parse_labeled_tsv's digits and an argmax over that many logits."""
    p = np.asarray(pred, dtype=np.int64)
    t = np.asarray(truth, dtype=np.int64)
    if p.shape != t.shape or p.ndim != 1:
        raise ContractError(f"label vectors must match, got {p.shape} and {t.shape}")
    return float(np.mean(p == t))


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with ties replaced by their group average."""
    # each NaN is a group of its own, as NaN != NaN; return_index makes the
    # sort stable, so NaNs take their ranks in input order
    _, _, group, counts = np.unique(values, return_index=True, return_inverse=True,
                                    return_counts=True, equal_nan=False)
    end = np.cumsum(counts)
    # a group holds sorted positions start = end - counts .. end-1: average ranks start+1..end
    return ((end - counts + end - 1) / 2 + 1)[group]


def spearman_rho(pred, truth) -> float:
    """Spearman correlation: Pearson correlation of average ranks.

    Returns nan if either input is constant (correlation undefined). The
    vectors hold at least two observations: eval --task regress refuses a
    file with fewer rows.
    """
    p = np.asarray(pred, dtype=np.float64)
    t = np.asarray(truth, dtype=np.float64)
    if p.shape != t.shape or p.ndim != 1:
        raise ContractError(f"inputs must be matching vectors, got {p.shape} and {t.shape}")
    rp = _average_ranks(p)
    rt = _average_ranks(t)
    rp = rp - rp.mean()
    rt = rt - rt.mean()
    denom = np.sqrt((rp * rp).sum() * (rt * rt).sum())
    if denom == 0.0:
        return float("nan")
    return float((rp * rt).sum() / denom)


def embedding_shift_probe(model, seq, prompt_name: str) -> np.ndarray:
    """How far the prompt moves each real residue: the Euclidean distance
    between seq's final-layer residue rows encoded with and without it, in
    residue order."""
    with_prompt = model.encode(seq, (prompt_name,))
    without = model.encode(seq, ())
    delta = with_prompt.h.data[with_prompt.rows()] - without.h.data[without.rows()]
    return np.sqrt((delta ** 2).sum(axis=1))
