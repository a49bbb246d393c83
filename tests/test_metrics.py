"""Evaluation metrics checked against independent brute-force oracles."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.stats

from protprompt import checkpoint as C
from protprompt import data as D
from protprompt import metrics as M
from protprompt import tokenizer as T
from protprompt.cli import main
from protprompt.config import RunConfig
from protprompt.errors import ContractError
from protprompt.model import ModelConfig, ProteinEncoder


# ---------------------------------------------------------------------------
# precision at L/2


def _brute_precision(scores, truth, range_class):
    # plain-python rendition: rank eligible upper-triangle pairs by
    # (score desc, i asc, j asc), take floor(L/2), count true contacts
    n = truth.n
    pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            sep = j - i
            if sep < range_class.min_sep:
                continue
            if range_class.max_sep is not None and sep > range_class.max_sep:
                continue
            pairs.append((i, j))
    k = n // 2
    if not pairs or k == 0:
        return 0.0, True
    pairs.sort(key=lambda p: (-scores[p[0], p[1]], p[0], p[1]))
    take = min(k, len(pairs))
    hits = sum(1 for i, j in pairs[:take] if truth.bits[i, j])
    return hits / take, take < k


def _random_map(rng, n):
    coords = rng.uniform(-15, 15, size=(n, 3))
    recs = [
        D.ResidueRecord(index=i + 1, xyz=coords[i])
        for i in range(n)
    ]
    return D.build_contact_map(recs)


def test_precision_matches_brute_force():
    classes = list(M.RANGE_CLASSES.values())
    for trial in range(105):
        rng = np.random.default_rng(3000 + trial)
        n = int(rng.integers(2, 60))
        truth = _random_map(rng, n)
        scores = rng.normal(size=(n, n))
        if trial % 3 == 0:
            scores = np.round(scores, 1)  # force score ties
        rc = classes[trial % len(classes)]
        assert M.precision_at_l_half(scores, truth, rc) == _brute_precision(scores, truth, rc), \
            trial


def _lexsort_precision(scores, truth, range_class):
    # the full 3-key sort over every eligible pair that precision_at_l_half
    # used before it selected the top floor(L/2) by partition
    n = truth.n
    k = n // 2
    ii, jj = np.triu_indices(n, k=1)
    sep = jj - ii
    keep = sep >= range_class.min_sep
    if range_class.max_sep is not None:
        keep &= sep <= range_class.max_sep
    ii, jj = ii[keep], jj[keep]
    if ii.size == 0 or k == 0:
        return M.ContactPrecision(precision=0.0, truncated=True)
    order = np.lexsort((jj, ii, -scores[ii, jj]))
    take = min(k, ii.size)
    hits = int(truth.bits[ii[order[:take]], jj[order[:take]]].sum())
    return M.ContactPrecision(precision=hits / take, truncated=take < k)


@pytest.mark.parametrize("n", [1, 2, 7, 13, 60, 150, 254])
def test_precision_matches_the_full_sort_on_tie_heavy_scores(n):
    rng = np.random.default_rng(n)
    bits = rng.random((n, n)) < 0.3
    bits = np.triu(bits, 1)
    truth = D.ContactMap(n=n, bits=bits | bits.T)
    gauss = rng.normal(size=(n, n))
    with_nan = np.round(gauss, 1)
    with_nan[rng.random((n, n)) < 0.05] = np.nan
    for scores in (gauss, np.round(gauss, 1), np.round(gauss), np.zeros((n, n)),
                   rng.integers(0, 3, (n, n)).astype(float), -np.zeros((n, n)), with_nan,
                   np.full((n, n), np.nan)):
        for name, rc in M.RANGE_CLASSES.items():
            assert M.precision_at_l_half(scores, truth, rc) == _lexsort_precision(
                scores, truth, rc), (n, name)


def _triu_precision(scores, truth, range_class):
    # precision_at_l_half as it was before it built pairs from the class's
    # band: every upper-triangle pair from np.triu_indices, then masked
    n = truth.n
    k = n // 2
    ii, jj = np.triu_indices(n, k=1)
    sep = jj - ii
    keep = sep >= range_class.min_sep
    if range_class.max_sep is not None:
        keep &= sep <= range_class.max_sep
    ii, jj = ii[keep], jj[keep]
    if ii.size == 0 or k == 0:
        return M.ContactPrecision(precision=0.0, truncated=True)
    neg = -scores[ii, jj]
    take = min(k, ii.size)
    cut = np.partition(neg, take - 1)[take - 1]
    cand = np.flatnonzero(~(neg > cut))
    top = cand[np.argsort(neg[cand], kind="stable")[:take]]
    hits = int(truth.bits[ii[top], jj[top]].sum())
    return M.ContactPrecision(precision=hits / take, truncated=take < k)


@pytest.mark.parametrize("n", [*range(65), 150, 254])
def test_band_pairs_match_the_masked_triangle(n):
    rng = np.random.default_rng(500 + n)
    bits = np.triu(rng.random((n, n)) < 0.3, 1)
    truth = D.ContactMap(n=n, bits=bits | bits.T)
    gauss = rng.normal(size=(n, n))
    with_nan = np.round(gauss, 1)
    with_nan[rng.random((n, n)) < 0.1] = np.nan
    for scores in (gauss, np.round(gauss, 1), np.zeros((n, n)),
                   rng.integers(0, 2, (n, n)).astype(float), with_nan):
        for name, rc in M.RANGE_CLASSES.items():
            assert M.precision_at_l_half(scores, truth, rc) == _triu_precision(
                scores, truth, rc), (n, name)


def test_short_class_precision_memory_grows_with_its_pairs():
    # the short band holds ~6n pairs; the whole upper triangle, n^2/2 of them,
    # would need far more than n^2 bytes for its index arrays alone
    n = 3000
    bits = np.zeros((n, n), dtype=bool)
    bits[0, 6] = bits[6, 0] = True  # the first pair in tie order, so one hit
    truth = D.ContactMap(n=n, bits=bits)
    scores = np.zeros((n, n))
    tracemalloc.start()
    try:
        got = M.precision_at_l_half(scores, truth, M.SHORT)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == (1 / (n // 2), False)  # one hit among the n // 2 scored
    assert peak < n * n // 4


def test_precision_tie_break_is_lexicographic():
    n = 14
    bits = np.zeros((n, n), dtype=bool)
    # only the lexicographically first eligible pair is a contact
    bits[0, 6] = bits[6, 0] = True
    truth = D.ContactMap(n=n, bits=bits)
    scores = np.zeros((n, n))  # every pair ties
    got = M.precision_at_l_half(scores, truth, M.SHORT)
    # k=7 picks (0,6),(0,7)...(0,11),(1,7); exactly one hit
    assert got.precision == 1 / 7  # one hit among the 7 scored
    again = M.precision_at_l_half(scores, truth, M.SHORT)
    assert got == again


def test_precision_truncation_flag():
    n = 8  # short range leaves only (0,6),(0,7),(1,7) but k=4
    bits = np.zeros((n, n), dtype=bool)
    bits[0, 6] = bits[6, 0] = True
    truth = D.ContactMap(n=n, bits=bits)
    got = M.precision_at_l_half(np.zeros((n, n)), truth, M.SHORT)
    assert got.truncated
    assert got.precision == 1 / 3  # one hit among the 3 scored


def test_precision_no_eligible_pairs():
    truth = _random_map(np.random.default_rng(0), 5)  # max sep 4 < short min
    got = M.precision_at_l_half(np.zeros((5, 5)), truth, M.SHORT)
    assert got == (0.0, True)
    with pytest.raises(ContractError, match="shape"):
        M.precision_at_l_half(np.zeros((4, 4)), truth, M.SHORT)


def test_range_class_boundaries():
    # separations [6, 12), [12, 24) and [24, inf); max_sep is inclusive
    assert [(rc.min_sep, rc.max_sep) for rc in (M.SHORT, M.MEDIUM, M.LONG)] == [
        (6, 11), (12, 23), (24, None)]
    assert M.RANGE_CLASSES == {"short": M.SHORT, "medium": M.MEDIUM, "long": M.LONG}


# ---------------------------------------------------------------------------
# classification metrics


def test_micro_f1_hand_cases():
    assert M.micro_f1([1, 0, 1], [1, 1, 1]) == 0.8  # tp=2 fp=0 fn=1
    assert M.micro_f1([1, 1, 0, 1], [1, 0, 0, 0]) == 0.5  # tp=1 fp=2 fn=0
    assert M.micro_f1([0, 0], [0, 0]) == 0.0  # 0/0 defined as 0
    assert M.micro_f1([1, 1], [1, 1]) == 1.0
    # multi-label matrices pool every slot
    pred = np.array([[1, 0, 0], [0, 1, 1]])
    truth = np.array([[1, 1, 0], [0, 1, 0]])
    assert M.micro_f1(pred, truth) == M.micro_f1(pred.ravel(), truth.ravel())


def test_micro_f1_permutation_invariant():
    rng = np.random.default_rng(5)
    pred = rng.integers(0, 2, size=50)
    truth = rng.integers(0, 2, size=50)
    base = M.micro_f1(pred, truth)
    for _ in range(5):
        perm = rng.permutation(50)
        assert M.micro_f1(pred[perm], truth[perm]) == base


def test_micro_f1_validation():
    with pytest.raises(ContractError):
        M.micro_f1([1, 0], [1])


def test_q_accuracy():
    assert M.q_accuracy([0, 1, 2, 1], [0, 1, 1, 1]) == 0.75
    assert M.q_accuracy([7, 0], [7, 0]) == 1.0


# ---------------------------------------------------------------------------
# rank correlation


def test_spearman_matches_scipy():
    for trial in range(110):
        rng = np.random.default_rng(4000 + trial)
        n = int(rng.integers(3, 40))
        x = rng.normal(size=n)
        y = rng.normal(size=n)
        if trial % 2 == 0:
            x = np.round(x, 0)  # heavy ties
            y = np.round(y, 0)
        if np.unique(x).size < 2 or np.unique(y).size < 2:
            continue
        want = scipy.stats.spearmanr(x, y).statistic
        assert abs(M.spearman_rho(x, y) - want) < 1e-10, trial


def _loop_average_ranks(values):
    # plain-python rendition: walk the stably sorted values, giving each run
    # of equal values (a NaN equals nothing) the mean of its 1-based ranks
    order = np.argsort(values, kind="stable")
    ranks = np.empty(values.size)
    i = 0
    while i < values.size:
        j = i
        while j + 1 < values.size and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def test_average_ranks_match_the_loop_bitwise():
    rng = np.random.default_rng(11)
    pool = np.array([0.0, -0.0, 1.0, -1.0, 2.5, np.inf, -np.inf, np.nan])
    for trial in range(400):
        n = int(rng.integers(0, 40)) if trial % 20 else int(rng.integers(500, 2000))
        values = rng.choice(pool, n) if trial % 2 else np.round(rng.normal(size=n), 1)
        assert M._average_ranks(values).tobytes() == _loop_average_ranks(values).tobytes()


def test_spearman_hand_cases():
    assert abs(M.spearman_rho([1, 2, 2, 3], [1, 2, 2, 3]) - 1.0) < 1e-12
    x = np.random.default_rng(1).normal(size=20)
    assert abs(M.spearman_rho(x, x) - 1.0) < 1e-12
    assert abs(M.spearman_rho(x, -x) + 1.0) < 1e-12
    # invariant under any strictly monotone transform
    assert abs(M.spearman_rho(x, np.exp(x)) - 1.0) < 1e-12
    assert math.isnan(M.spearman_rho([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]))
    with pytest.raises(ContractError):
        M.spearman_rho([1.0, 2.0], [1.0, 2.0, 3.0])


def test_average_ranks():
    got = M._average_ranks(np.array([10.0, 30.0, 20.0, 30.0]))
    assert got.tolist() == [1.0, 3.5, 2.0, 3.5]


# ---------------------------------------------------------------------------
# embedding shift probe


PROBE_CONFIG = RunConfig(d=16, layers=1, heads=2, max_len=12, prompts="Seq,IC")


def _probe_model():
    return ProteinEncoder(ModelConfig.from_run_config(PROBE_CONFIG), seed=3)


def _probe_rows(tmp_path, residues, prompt, cutoff):
    """The cells of each residue row of the probe command's CSV for one
    sequence, run on a checkpoint of _probe_model."""
    model_path, fasta, out = tmp_path / "model.bin", tmp_path / "p.fasta", tmp_path / "probes"
    C.save_model(model_path, _probe_model(), PROBE_CONFIG)
    fasta.write_text(f">p\n{residues}\n")
    assert main(["probe", "--checkpoint", str(model_path), "--fasta", str(fasta), "--prompt",
                 prompt, "--cutoff", repr(cutoff), "--out-dir", str(out)]) == 0
    lines = (out / "p.csv").read_text().splitlines()
    assert lines[0].startswith("# config_hash=") and lines[1] == "index,residue,distance,flagged"
    return [line.split(",") for line in lines[2:]]


def test_probe_distances_match_direct_recomputation():
    model = _probe_model()
    seq = T.encode("ACDWKE", 12)
    got = M.embedding_shift_probe(model, seq, "IC")
    # residues sit at rows 1..6 past the prompt rows
    a = model.encode(seq, ("IC",)).h.data[2:8]
    b = model.encode(seq, ()).h.data[1:7]
    assert got.tobytes() == np.sqrt(((a - b) ** 2).sum(axis=1)).tobytes()


def test_probe_flags_follow_cutoff(tmp_path):
    distances = M.embedding_shift_probe(_probe_model(), T.encode("MNPQRS", 12), "Seq")
    # attaching a prompt must move every residue at least a little
    assert (distances > 0.0).all()
    # a residue is flagged when it moved further than the cutoff, not as far
    mid = float(np.sort(distances)[2])
    for cutoff, flags in ((0.0, "111111"), (1e9, "000000"),
                          (mid, "".join(str(int(x > mid)) for x in distances))):
        rows = _probe_rows(tmp_path, "MNPQRS", "Seq", cutoff)
        assert "".join(cells[3] for cells in rows) == flags
        assert [float(cells[2]) for cells in rows] == distances.tolist()
    assert flags.count("1") == 3


def test_probe_csv_shape(tmp_path):
    rows = _probe_rows(tmp_path, "acd", "IC", 0.5)
    distances = M.embedding_shift_probe(_probe_model(), T.encode("ACD", 12), "IC")
    assert [cells[:2] for cells in rows] == [["0", "A"], ["1", "C"], ["2", "D"]]
    assert [cells[2] for cells in rows] == [repr(float(x)) for x in distances]
    assert all(cells[3] in ("0", "1") for cells in rows)
