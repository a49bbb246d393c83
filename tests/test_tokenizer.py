"""Vocabulary, encoding and masked-corruption contracts."""

import numpy as np
import pytest

from protprompt import tokenizer as T
from protprompt.errors import EncodingError, TruncationError


def test_vocabulary_layout():
    assert T.VOCAB_SIZE == 25
    assert T.SYMBOLS[:4] == ("<cls>", "<eos>", "<pad>", "<mask>")
    assert T.SYMBOLS[4:24] == tuple("ACDEFGHIKLMNPQRSTVWY")
    assert T.SYMBOLS[24] == "X"
    assert (T.CLS_ID, T.EOS_ID, T.PAD_ID, T.MASK_ID) == (0, 1, 2, 3)
    assert (T.FIRST_RESIDUE_ID, T.UNKNOWN_ID) == (4, 24)


def test_write_vocab(tmp_path):
    path = tmp_path / "vocab.txt"
    T.write_vocab(path)
    lines = path.read_text().splitlines()
    assert len(lines) == 25
    assert lines[0] == "<cls>" and lines[4] == "A" and lines[24] == "X"


def test_encode_basic():
    seq = T.encode("ACD", 6, "p1")
    assert seq.ids.tolist() == [T.CLS_ID, 4, 5, 6, T.EOS_ID]  # never padded to max_len
    assert seq.length == 5
    assert seq.n_residues == 3
    assert seq.residue_positions().tolist() == [1, 2, 3]


def test_encode_lowercase_and_unknown():
    assert T.encode("acd", 6).ids.tolist() == T.encode("ACD", 6).ids.tolist()
    assert T.encode("AXC", 6).ids.tolist() == [0, 4, T.UNKNOWN_ID, 5, 1]


def test_encode_illegal_symbol_position():
    with pytest.raises(EncodingError, match="'J' at position 2"):
        T.encode("AJA", 8)
    with pytest.raises(EncodingError, match="position 4"):
        T.encode("ACDB", 8)


@pytest.mark.parametrize("letter", ["ı", "ſ", "ß", "ﬀ"])
def test_encode_refuses_non_ascii_letters_that_upper_case_to_residues(letter):
    # 'ı'.upper() is 'I', 'ſ'.upper() 'S', 'ß'.upper() 'SS' and 'ﬀ'.upper() 'FF'
    for max_len in (5, 4):  # 'ß' and 'ﬀ' upper-case to two letters, past room for 2
        with pytest.raises(EncodingError, match=f"illegal residue '{letter}' at position 2"):
            T.encode(f"A{letter}", max_len)


def test_encode_refuses_truncation():
    with pytest.raises(TruncationError, match="refusing to truncate"):
        T.encode("ACDE", 5)
    # exactly max_len - 2 residues is fine
    seq = T.encode("ACD", 5)
    assert seq.ids.tolist() == [0, 4, 5, 6, 1]


def test_encode_maps_every_letter_and_folds_case():
    letters = "ACDEFGHIKLMNPQRSTVWYX"
    ids = list(range(T.FIRST_RESIDUE_ID, T.FIRST_RESIDUE_ID + 20)) + [T.UNKNOWN_ID]
    assert T.encode(letters, 23).ids.tolist() == [T.CLS_ID, *ids, T.EOS_ID]
    assert T.encode(letters.lower(), 23).ids.tolist() == [T.CLS_ID, *ids, T.EOS_ID]
    assert [T.SYMBOLS[i] for i in ids] == list(letters)


GOLD_SEQ = "ACDEFGHIKLMNPQRSTVWY"


def test_mlm_mask_golden_seed_42():
    seq = T.encode(GOLD_SEQ, 24, "gold")
    m = T.apply_mlm_mask(seq, 0.3, 42)
    assert m.positions.tolist() == [5, 9, 16, 18]
    assert m.targets.tolist() == [8, 12, 19, 21]
    assert m.corrupted.tolist() == [
        0, 4, 5, 6, 7, 3, 9, 10, 11, 3, 13, 14, 15,
        16, 17, 18, 19, 20, 17, 22, 23, 1,
    ]


def test_mlm_mask_matches_documented_draw_order():
    # independent replay: selection uniforms, then policy uniforms, then
    # integer replacement draws, all from one PCG64 stream
    seq = T.encode(GOLD_SEQ, 24, "gold")
    for seed in range(25):
        m = T.apply_mlm_mask(seq, 0.25, seed)
        rng = np.random.default_rng(seed)
        pos = np.arange(1, 21)
        draws = rng.random(20)
        selected = pos[draws < 0.25]
        if selected.size == 0:
            selected = pos[[int(np.argmin(draws))]]
        assert m.positions.tolist() == selected.tolist()
        policy = rng.random(selected.size)
        n_random = int(np.sum((policy >= 0.8) & (policy < 0.9)))
        replacements = rng.integers(0, 20, size=n_random)
        r = iter(replacements)
        expect = seq.ids.copy()
        for k, p in enumerate(selected):
            if policy[k] < 0.8:
                expect[p] = T.MASK_ID
            elif policy[k] < 0.9:
                expect[p] = T.FIRST_RESIDUE_ID + int(next(r))
        assert m.corrupted.tolist() == expect.tolist()


def test_mlm_mask_never_touches_specials_or_padding():
    seq = T.encode("ACDE", 12)
    for seed in range(200):
        m = T.apply_mlm_mask(seq, 0.5, seed)
        assert m.corrupted.size == 6  # no padding appended
        assert m.corrupted[0] == T.CLS_ID
        assert m.corrupted[5] == T.EOS_ID
        assert np.all(m.positions >= 1) and np.all(m.positions <= 4)
        assert np.array_equal(m.targets, seq.ids[m.positions])
        untouched = np.setdiff1d(np.arange(6), m.positions)
        assert np.array_equal(m.corrupted[untouched], seq.ids[untouched])


def test_mlm_mask_always_selects_at_least_one():
    seq = T.encode("AC", 6)
    for seed in range(300):
        m = T.apply_mlm_mask(seq, 0.01, seed)
        assert m.positions.size >= 1


def test_mlm_mask_selection_rate_monte_carlo():
    seq = T.encode("A" * 50, 52)
    total = 0
    for seed in range(10000):
        total += T.apply_mlm_mask(seq, 0.15, seed).positions.size
    rate = total / (10000 * 50)
    assert abs(rate - 0.15) < 0.005


def test_mlm_mask_policy_mix_monte_carlo():
    seq = T.encode(GOLD_SEQ * 2, 44)
    masked = randomized = kept = 0
    for seed in range(3000):
        m = T.apply_mlm_mask(seq, 0.3, seed)
        for p, tgt in zip(m.positions, m.targets):
            got = m.corrupted[p]
            if got == T.MASK_ID:
                masked += 1
            elif got == tgt:
                kept += 1
            else:
                randomized += 1
    total = masked + randomized + kept
    assert abs(masked / total - 0.8) < 0.02
    # a random replacement collides with the original 1/20 of the time,
    # so the observed "changed" share is 0.1 * 19/20 and "kept" gains 0.1/20
    assert abs(randomized / total - 0.095) < 0.02
    assert abs(kept / total - 0.105) < 0.02


def test_mlm_mask_random_replacements_are_standard_residues():
    # an all-A sequence: a selected position that is neither <mask> nor A
    # took the random branch of the fixed split, which draws every standard
    # residue and nothing else
    seq = T.encode("A" * 30, 40)
    seen = set()
    for seed in range(2000):
        m = T.apply_mlm_mask(seq, 0.4, seed)
        seen.update(m.corrupted[m.positions].tolist())
    seen -= {T.MASK_ID}
    assert seen == set(range(T.FIRST_RESIDUE_ID, T.FIRST_RESIDUE_ID + 20))
    assert T.UNKNOWN_ID not in seen


def test_mlm_mask_deterministic():
    seq = T.encode(GOLD_SEQ, 24)
    a = T.apply_mlm_mask(seq, 0.3, (1, 2, 3))
    b = T.apply_mlm_mask(seq, 0.3, (1, 2, 3))
    assert np.array_equal(a.corrupted, b.corrupted)
    assert np.array_equal(a.positions, b.positions)
