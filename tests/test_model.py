"""Mask semantics, encoder forward/backward contracts and task heads."""

import tracemalloc

import numpy as np
import pytest

from protprompt import numerics as nm
from protprompt import objectives as O
from protprompt import tokenizer as T
from protprompt.errors import ContractError, ShapeError
from protprompt.model import ModelConfig, ProteinEncoder
from protprompt.numerics import Tape, Tensor

from conftest import (affine, attention_maps, mlm_logits, mlm_loss, mul, multihead_attention,
                      reference_encode, reference_forward, select_rows, sum_all)


def small_model(prompts=("Seq", "IC"), seed=0, max_len=12):
    cfg = ModelConfig(d=16, layers=2, heads=4, max_len=max_len, prompt_names=tuple(prompts))
    return ProteinEncoder(cfg, seed=seed)


# ---------------------------------------------------------------------------
# mask semantics on the attention maps of conftest.attention_maps: its input
# rows are the encode's own scores, its prompt rows the explicit mask's


def _attention_support(m, n):
    """Where an encode's attention maps are nonzero, for m prompts and n
    input rows: one boolean (m+n, m+n) grid, the same in every layer and head."""
    cfg = ModelConfig(d=16, layers=2, heads=4, max_len=8, prompt_names=("Seq", "IC", "PPI"))
    model = ProteinEncoder(cfg, seed=6)
    seq = T.TokenSequence(ids=np.random.default_rng(n).integers(0, T.VOCAB_SIZE, n))
    maps = attention_maps(model, seq, cfg.prompt_names[:m])
    support = {(w != 0.0).tobytes() for layer in maps for w in layer}
    assert len(support) == 1, (m, n)
    return np.frombuffer(support.pop(), dtype=bool).reshape(m + n, m + n)


def test_mask_one_prompt_two_inputs():
    assert _attention_support(1, 2).tolist() == [
        [True, False, False],
        [True, True, True],
        [True, True, True],
    ]


def test_mask_two_prompts_two_inputs():
    assert _attention_support(2, 2).tolist() == [
        [True, False, False, False],
        [False, True, False, False],
        [True, True, True, True],
        [True, True, True, True],
    ]


def test_mask_rule_enumeration():
    # 1-based rule: M[i][j] = 0 iff (i<=m and j>m) or (i,j<=m and i!=j)
    for m_count in range(4):
        for n in range(1, 5):
            support = _attention_support(m_count, n)
            for i in range(1, m_count + n + 1):
                for j in range(1, m_count + n + 1):
                    blocked = (i <= m_count and j > m_count) or (
                        i <= m_count and j <= m_count and i != j
                    )
                    assert support[i - 1, j - 1] == (not blocked)


def test_mask_no_prompts_is_all_ones():
    assert _attention_support(0, 3).all()


def test_mask_argument_validation():
    # the prompt count is the whole mask: it must lie in [0, rows]
    x = Tensor(np.random.default_rng(8).normal(size=(3, 4)))
    weights = [Tensor(np.ones(shape)) for shape in
               [(4, 4), (4,)] * 4 + [(4,), (4,), (4, 16), (16,), (16, 4), (4,), (4,), (4,)]]
    for m in (-1, 4):
        with pytest.raises(ShapeError, match=f"{m} prompts"):
            multihead_attention(x, x, x, 2, m)
        with pytest.raises(ShapeError, match=f"{m} prompts"):
            nm.encoder_layer(x, weights, 2, m)


# ---------------------------------------------------------------------------
# prompts


def test_prompts_are_an_ordered_name_to_tensor_map():
    model = small_model(prompts=("Seq", "IC", "PPI"))
    assert isinstance(model.prompts, dict)
    assert tuple(model.prompts) == ("Seq", "IC", "PPI")
    assert [name for name in model.parameters() if name.startswith("prompt.")] == [
        "prompt.Seq", "prompt.IC", "prompt.PPI"]
    assert all(p.requires_grad and p.shape == (16,) for p in model.prompts.values())
    seq = T.encode("ACD", 8)
    model.prompts["Flat"] = Tensor(np.zeros((2, 8)), requires_grad=True)
    with pytest.raises(ShapeError, match="prompt shapes"):
        model.embed(seq, ("Flat",))


def test_prompt_rows_carry_no_position_or_segment():
    model = small_model()
    seq = T.encode("ACD", 8)
    x = model.embed(seq, ("Seq", "IC"))
    assert np.array_equal(x.data[0], model.prompts["Seq"].data)
    assert np.array_equal(x.data[1], model.prompts["IC"].data)


# ---------------------------------------------------------------------------
# attention semantics


def test_additive_prompt_self_weight_is_exactly_one():
    # on the oracle's prompt rows: the explicit mask's finite penalty leaves
    # a prompt exactly its own key at the encode's own scores
    model = small_model()
    seq = T.encode("ACDEF", 10)
    attn = attention_maps(model, seq, ("Seq", "IC"))
    for layer_maps in attn:
        for head in layer_maps:
            assert head[0, 0] == 1.0 and head[1, 1] == 1.0
            assert np.all(head[0, 1:] == 0.0)
            assert np.all(head[1, 0] == 0.0) and np.all(head[1, 2:] == 0.0)


def test_additive_rows_sum_to_one_everywhere():
    model = small_model()
    seq = T.encode("ACD", 10)
    attn = attention_maps(model, seq, ("Seq", "IC"))
    for layer_maps in attn:
        for head in layer_maps:
            assert head.shape == (7, 7)  # 2 prompts + CLS, 3 residues, EOS; no padding
            assert np.allclose(head.sum(axis=1), 1.0, atol=1e-12)


# ---------------------------------------------------------------------------
# reference forward: an independent plain-numpy encoder without any prompt
# or masking machinery, used to pin the m=0 reduction bitwise


def test_zero_prompts_reduce_to_plain_encoder_bitwise():
    model = small_model(seed=7)
    for s in ("ACDEFG", "WYW", "KK"):
        seq = T.encode(s, 12)
        got = model.encode(seq, ()).h.data
        want = reference_forward(model, seq.ids)
        assert np.array_equal(got, want)


def test_trimmed_encode_matches_padded_reference_additive():
    # the padded path computed PAD rows that real rows never read; running
    # the reference over PAD-filled ids must agree on every real row
    model = small_model(seed=8, max_len=16)
    for s in ("ACDEFGHIKLMNP", "WYW", "K"):
        seq = T.encode(s, 16)
        padded = np.concatenate([seq.ids, np.full(16 - seq.length, T.PAD_ID)])
        want = reference_forward(model, padded)[: seq.length]
        got = model.encode(seq, ()).h.data
        assert got.shape == (seq.length, 16)
        assert np.abs(got - want).max() <= 1e-12


# the "additive" ids below stay from when a second mask mode existed


@pytest.mark.parametrize("seed", [6], ids=["additive"])
def test_output_does_not_depend_on_max_len(seed):
    model = small_model(seed=seed, max_len=64)
    s = "MKTAYIAKQRQISFVKSHFSRQ"  # 22 residues
    outs = [model.encode(T.encode(s, max_len), ("Seq", "IC")) for max_len in (24, 64)]
    for out in outs:
        assert out.h.shape == (2 + 24, 16)
    a, b = outs
    assert np.array_equal(a.h.data[a.rows()], b.h.data[b.rows()])
    assert np.array_equal(model.pool(a).data, model.pool(b).data)


@pytest.mark.parametrize("seed", [0], ids=["additive"])
def test_encode_tape_size_does_not_depend_on_heads(seed):
    # an encode records L+1 tape nodes whatever the head count: one for the
    # prompt and embedding rows, then one per encoder layer
    seq = T.encode("MKTAYIAKQR", 16)
    sizes = []
    for heads in (1, 2, 4, 8):
        cfg = ModelConfig(d=32, layers=2, heads=heads, max_len=16, prompt_names=("Seq", "IC"))
        tape = Tape()
        with tape:
            ProteinEncoder(cfg, seed=seed).encode(seq, ("Seq", "IC"))
        sizes.append(len(tape.nodes))
    assert sizes == [3] * 4


@pytest.mark.parametrize("frozen_encoder", [False, True], ids=["trainable", "encoder-frozen"])
@pytest.mark.parametrize("prompts, frozen", [
    ((), frozenset()), (("Seq", "IC"), frozenset()), (("Seq", "IC"), frozenset({"IC"})),
], ids=["no-prompts", "two-prompts", "one-frozen"])
@pytest.mark.parametrize("heads", [1, 2, 4, 8], ids=lambda h: f"additive-{h}")
def test_fused_encode_matches_the_per_op_chain(heads, prompts, frozen, frozen_encoder):
    # encoder_input and encoder_layer against the per-op chain kept in
    # conftest: output and every gradient, bit for bit
    cfg = ModelConfig(d=16, layers=2, heads=heads, max_len=16, prompt_names=("Seq", "IC"))
    model = ProteinEncoder(cfg, seed=5)
    rng = np.random.default_rng(3)
    for p in model.parameters().values():
        p.data[:] = rng.normal(0.0, 0.3, p.shape)  # larger than init: every path carries signal
    if frozen_encoder:
        for p in model.encoder.values():
            p.requires_grad = False
    seq = T.encode("MKTAYIAKQR", 16)
    probe = Tensor(rng.normal(size=(len(prompts) + seq.length, cfg.d)), requires_grad=True)

    def run(encode):
        for p in model.parameters().values():
            p.grad = None
        tape = Tape()
        with tape:
            h = encode()
            loss = sum_all(mul(h, probe))
        nm.backward(tape, loss)
        return h.data, {name: p.grad for name, p in model.parameters().items()}

    h, grads = run(lambda: model.encode(seq, prompts, frozen=frozen).h)
    ref_h, ref_grads = run(lambda: reference_encode(model, seq, prompts, frozen))
    assert h.tobytes() == ref_h.tobytes()
    for name, g in grads.items():
        assert (g is None) == (ref_grads[name] is None), name
        assert g is None or g.tobytes() == ref_grads[name].tobytes(), name
    assert sum(g is not None for g in grads.values()) == (
        len(prompts) - len(frozen) + (0 if frozen_encoder else 3 + 16 * cfg.layers))
    assert model.encode(seq, prompts, frozen=frozen).h.data.tobytes() == h.tobytes()


# ---------------------------------------------------------------------------
# one-way information flow (gradients, additive mode)


def _generic_scalar(t, seed=123):
    probe = Tensor(np.random.default_rng(seed).normal(0, 1, t.shape))
    return sum_all(mul(t, probe))


def test_inputs_never_reach_prompts_additive():
    model = small_model(seed=1)
    seq = T.encode("ACDEFGH", 12)
    tape = Tape()
    with tape:
        out = model.encode(seq, ("Seq", "IC"))
        loss = _generic_scalar(select_rows(out.h, np.arange(out.m)))
    for p in model.parameters().values():
        p.grad = None
    nm.backward(tape, loss)
    # prompt-row outputs must not depend on any input content
    for name in ("embed.tok", "embed.pos", "embed.seg"):
        g = model.parameters()[name].grad
        assert g is None or np.all(g == 0.0), f"{name} leaked into prompts"
    assert np.any(model.prompts["Seq"].grad != 0.0)
    assert np.any(model.prompts["IC"].grad != 0.0)


def test_prompt_rows_do_not_depend_on_the_input():
    # a prompt row attends only to itself in every layer, so its final state
    # is the same bits whatever residues follow it and however many
    model = small_model(seed=4, max_len=16)
    for prompts in (("Seq",), ("Seq", "IC")):
        m = len(prompts)
        a, b = (model.encode(T.encode(s, 16), prompts).h.data[:m]
                for s in ("ACDEFGHIKLMN", "WYK"))
        assert a.tobytes() == b.tobytes(), prompts


def test_prompts_do_reach_inputs_additive():
    model = small_model(seed=2)
    seq = T.encode("ACDEFGH", 12)
    tape = Tape()
    with tape:
        out = model.encode(seq, ("Seq", "IC"))
        loss = _generic_scalar(select_rows(out.h, np.arange(out.m, out.h.shape[0])))
    for p in model.parameters().values():
        p.grad = None
    nm.backward(tape, loss)
    assert np.any(model.prompts["Seq"].grad != 0.0)
    assert np.any(model.parameters()["embed.tok"].grad != 0.0)


def test_prompts_are_isolated_from_each_other():
    model = small_model(seed=3)
    seq = T.encode("ACDEF", 12)
    tape = Tape()
    with tape:
        out = model.encode(seq, ("Seq", "IC"))
        loss = _generic_scalar(select_rows(out.h, [0]))  # Seq row only
    for p in model.parameters().values():
        p.grad = None
    nm.backward(tape, loss)
    ic = model.prompts["IC"].grad
    assert ic is None or np.all(ic == 0.0)
    assert np.any(model.prompts["Seq"].grad != 0.0)


def test_prompt_permutation_leaves_inputs_invariant():
    model = small_model(seed=4)
    seq = T.encode("ACDEFGHIK", 12)
    fwd = model.encode(seq, ("Seq", "IC")).h.data[2:]
    rev = model.encode(seq, ("IC", "Seq")).h.data[2:]
    assert np.abs(fwd - rev).max() <= 1e-12


def test_sequence_longer_than_position_table():
    model = small_model(max_len=6)
    seq = T.encode("ACDEFG", 8)  # 8 ids, table only has 6 positions
    with pytest.raises(ShapeError, match="position table"):
        model.embed(seq)


# ---------------------------------------------------------------------------
# heads


def test_pool_is_mean_of_residue_rows_only():
    model = small_model()
    seq = T.encode("ACD", 8)
    out = model.encode(seq, ("Seq",))
    pooled = model.pool(out)
    manual = out.h.data[2:5].mean(axis=0)  # rows: prompt, CLS, A, C, D, EOS...
    assert np.allclose(pooled.data, manual, atol=1e-15)


def test_pair_logits_symmetry_and_kinds():
    model = small_model()
    a = model.pool(model.encode(T.encode("ACDEF", 10), ("IC",)))
    b = model.pool(model.encode(T.encode("WYWYW", 10), ("IC",)))
    # the label width picks the head
    t = model.pair_logits(a, b, 7)
    assert t.shape == (7,)
    assert np.array_equal(t.data, model.pair_logits(b, a, 7).data)
    bin_ = model.pair_logits(a, b, 1)
    assert bin_.shape == (1,)


def test_contact_logits_symmetric_matrix():
    model = small_model(max_len=256)
    rng = np.random.default_rng(12)
    for n in (1, 2, 17, 254):
        residues = "".join(rng.choice(list("ACDEFGHIKLMNPQRSTVWY"), size=n))
        c = model.contact_logits(model.encode(T.encode(residues, 256), ("IC",)))
        assert c.shape == (n, n)
        assert np.array_equal(c.data, c.data.T), n


def test_contact_logits_builds_no_pair_feature_rows():
    # one (n*n, d) float64 array is n*n*d*8 bytes (~33 MB here); the head must
    # peak far below that, so no per-pair gather can come back unnoticed. The
    # head holds one block of CONTACT_BLOCK_ROWS * n * d floats (1 MB) and a
    # few (n, n) arrays (0.5 MB each), so it stays under 4 MB
    n, d = 254, 64
    model = ProteinEncoder(ModelConfig(d=d, layers=1, heads=4, max_len=256,
                                       prompt_names=("Seq", "IC")), seed=3)
    residues = "".join(np.random.default_rng(13).choice(list("ACDEFGHIKLMNPQRSTVWY"), size=n))
    out = model.encode(T.encode(residues, 256), ())
    tracemalloc.start()
    try:
        model.contact_logits(out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6, peak


@pytest.mark.parametrize("heads", [1, 4])
@pytest.mark.parametrize("m", [0, 2])
def test_taped_and_tape_free_encodes_agree_bitwise(m, heads):
    # one attention formula serves both: a tape adds only the row maxima and
    # sums from which the backward rebuilds the normalised maps, so the rows
    # keep their bits at every length up to 254 rows of input; a backward
    # reaches every trained parameter
    model = ProteinEncoder(ModelConfig(d=64, layers=2, heads=heads, max_len=256,
                                       prompt_names=("Seq", "IC")), seed=5)
    names = model.config.prompt_names[:m]
    rng = np.random.default_rng(17)
    for residues in (1, 9, 73, 252):
        seq = T.encode("".join(rng.choice(list("ACDEFGHIKLMNPQRSTVWY"), size=residues)), 256)
        plain = model.encode(seq, names)
        for p in model.parameters().values():
            p.grad = None
        with Tape() as tape:
            taped = model.encode(seq, names)
            assert len(tape.nodes) == 1 + model.config.layers
            loss = sum_all(mul(taped.h, Tensor(rng.normal(size=plain.h.shape))))
        assert plain.h.data.tobytes() == taped.h.data.tobytes()
        nm.backward(tape, loss)
        grads = [p.grad for p in model.parameters().values()]
        assert sum(g is not None for g in grads) == 3 + 16 * model.config.layers + m


@pytest.mark.parametrize("m", [0, 2])
def test_taped_encode_keeps_linear_floats_per_row(m):
    # a taped layer keeps (n, d) arrays, the GELU cdf and its attention's
    # row maxima and sums, never a (heads, n - m, n) block: its backward
    # rebuilds the normalised maps, the first layernorm's output, the
    # feed-forward pre-activation and the GELU output. 9d + f floats per row
    # (3.4 MB here) bound what it keeps, about 748 at d=64; keeping the
    # pre-activation as well takes 1004, the maps alone 4n more
    d, layers = 64, 2
    model = ProteinEncoder(ModelConfig(d=d, layers=layers, heads=4, max_len=256,
                                       prompt_names=("Seq", "IC")), seed=3)
    seq = T.encode("".join(np.random.default_rng(13).choice(list("ACDEFGHIKLMNPQRSTVWY"),
                                                          size=252)), 256)
    names = model.config.prompt_names[:m]
    model.encode(seq, names)
    tracemalloc.start()
    try:
        with Tape() as tape:
            out = model.encode(seq, names)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(tape.nodes) == 1 + layers and out.h.requires_grad
    assert kept < layers * (9 * d + 4 * d) * (m + seq.length) * 8, (m, kept)


@pytest.mark.parametrize("m", [0, 2])
def test_taped_layer_backward_holds_two_score_blocks(m):
    # the backward of one taped layer rebuilds the normalised maps Y, forms
    # dS in a second (heads, n - m, n) block and drops Y once dS exists; D
    # comes from the attention output, so no third block is made for it.
    # 2.5 blocks plus the weight gradients (5.6 MB at m=2) bound the peak;
    # with D from dY * Y the peak is about 6.9 MB, 7.7 MB keeping f1 too
    n, d, heads = 256, 64, 4
    model = ProteinEncoder(ModelConfig(d=d, layers=1, heads=heads, max_len=n,
                                       prompt_names=()), seed=3)
    weights = model.layers[0]
    rng = np.random.default_rng(19)
    x = Tensor(rng.normal(size=(n, d)), requires_grad=True)
    with Tape():
        out = nm.encoder_layer(x, weights, heads, m)
    g = rng.normal(size=out.shape)
    tracemalloc.start()
    try:
        out._backprop(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(w.grad is not None for w in weights) and x.grad is not None
    assert peak < 2.5 * heads * (n - m) * n * 8 + sum(w.data.nbytes for w in weights), (m, peak)


def _tape_free_encode_peak(residues=254, heads=4, m=0):
    """tracemalloc peak of a tape-free encode at d=64 with m prompts, and the
    row count n, prompt rows included."""
    model = ProteinEncoder(ModelConfig(d=64, layers=1, heads=heads, max_len=256,
                                       prompt_names=("Seq", "IC")), seed=3)
    seq = T.encode("".join(np.random.default_rng(13).choice(list("ACDEFGHIKLMNPQRSTVWY"),
                                                          size=residues)), 256)
    names = model.config.prompt_names[:m]
    model.encode(seq, names)
    tracemalloc.start()
    try:
        model.encode(seq, names)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, m + seq.length


def test_encode_peak_memory_stays_near_one_attention_block():
    # a tape-free encode keeps a few (heads, n, n) arrays alive at a time;
    # chains of fresh attention temporaries would need many more
    heads = 4
    peak, n = _tape_free_encode_peak(heads=heads)
    assert peak < 3 * heads * n * n * 8, peak


def test_tape_free_layer_holds_one_score_block():
    # without a tape the fused layer drops q, k and v once split into heads
    # and its score block once the attention output exists; the mask is
    # applied by structure, so only the n - m input rows are scored, and
    # the rows are normalised after the value product, so no normalised
    # block is kept: the peak is one (heads, n - m, n) block and a few
    # (n, d) arrays, with and without prompts
    heads, d = 4, 64
    for m in (0, 2):
        peak, n = _tape_free_encode_peak(heads=heads, m=m)
        assert peak < heads * (n - m) * n * 8 + 8 * n * d * 8, (m, peak)


def test_rows_sit_past_the_prompt_rows():
    # rows() indexes h at token positions past the m prompt rows, by default
    # the real residues
    model = small_model()
    seq = T.encode("ACDEF", 10)
    for prompts in ((), ("Seq",), ("Seq", "IC")):
        out = model.encode(seq, prompts)
        m = len(prompts)
        assert out.rows().tolist() == list(range(m + 1, m + 6))
        assert out.rows(np.array([0, 6])).tolist() == [m, m + 6]


def test_mlm_logits_selects_input_positions():
    # the masked-LM loss reads the logits of input positions, which sit
    # after the prompt rows
    model = small_model()
    seq = T.encode("ACDEF", 10, "s")
    masked = T.MlmBatch(corrupted=seq.ids, positions=np.array([1, 3]), targets=np.array([4, 7]))
    batch = [masked]
    out = model.encode(seq, ("Seq", "IC"))
    direct = affine(select_rows(out.h, np.array([3, 5])), *model.head("mlm"))
    assert mlm_logits(model, out, [1, 3]).data.tobytes() == direct.data.tobytes()
    want = mlm_loss(direct, [4, 7]).data.item()
    assert abs(O._forward_mlm(model, batch, "sum").data.item() - want) <= 1e-12
    empty = T.MlmBatch(corrupted=seq.ids, positions=np.array([], dtype=np.intp),
                       targets=np.array([], dtype=np.intp))
    with pytest.raises(ContractError):
        O._forward_mlm(model, [empty], "sum")


def test_token_logits_classes():
    model = small_model()
    out = model.encode(T.encode("ACDEF", 10), ())
    assert model.token_logits(out, 3).shape == (5, 3)
    assert model.token_logits(out, 8).shape == (5, 8)


def test_regress_returns_scalar():
    model = small_model()
    pooled = model.pool(model.encode(T.encode("ACDEF", 10), ()))
    val = model.regress(pooled)
    assert val.shape == ()


def test_heads_score_on_arrays_and_record_no_tape_node():
    # each head runs its training node's forward kernel on arrays, so even an
    # encode under a tape gives constant scores and no head node
    model = small_model()
    with Tape() as tape:
        out = model.encode(T.encode("ACDEF", 10), ("IC",))
        nodes = len(tape.nodes)
        pooled = model.pool(out)
        scores = [pooled, model.pair_logits(pooled, pooled, 1),
                  model.pair_logits(pooled, pooled, 7), model.token_logits(out, 3),
                  model.regress(pooled)]
    assert len(tape.nodes) == nodes and not any(t.requires_grad for t in scores)
    w, b = model.head("ss3")
    rows = out.h.data[1 + out.seq.residue_positions()]
    assert scores[3].data.tobytes() == nm._affine_forward(rows, w.data, b.data).tobytes()


def test_parameter_registry_order_and_freeze_view():
    model = small_model()
    names = list(model.parameters())
    assert names[0] == "embed.tok"
    assert names[3] == "layer0.attn.wq"
    assert "prompt.Seq" in names and "prompt.IC" in names
    assert names[-1] == "head.regress.b"
    enc = model.encoder
    assert all(not n.startswith(("prompt.", "head.")) for n in enc)
    assert len(enc) == 3 + 16 * 2


def test_every_tensor_the_model_holds_is_one_parameter():
    # walk the model's attributes, through containers and held objects: each
    # Tensor met is a value of parameters(), which lists no Tensor twice
    model = small_model()
    params = list(model.parameters().values())
    held, seen, stack = set(), set(), [model]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, Tensor):
            held.add(id(obj))
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple)):
            stack.extend(obj)
        elif hasattr(obj, "__dict__"):
            stack.extend(vars(obj).values())
    assert len({id(p) for p in params}) == len(params)
    assert held == {id(p) for p in params}


def test_model_config_from_run_config():
    from protprompt.config import RunConfig

    rc = RunConfig(d=32, layers=1, heads=2, prompts="Seq")
    mc = ModelConfig.from_run_config(rc)
    assert (mc.d, mc.layers, mc.heads) == (32, 1, 2)
    assert mc.prompt_names == ("Seq",)
