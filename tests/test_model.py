"""Transformer forward/backward, decoding, and checkpoint format."""

import json
from dataclasses import replace

import numpy as np
import pytest

from oracles import oracle_mask, oracle_tags
from srl_rewriter.core import RESERVED_TOKENS, RewriterError
from srl_rewriter.masks import NEG_BIAS, MaskVariant
from srl_rewriter.model import (
    ModelConfig,
    RewriterModel,
    _parameter_shapes,
    decode_corpus,
    load_checkpoint,
    make_batch,
    save_checkpoint,
)
from srl_rewriter.packing import EOS_ID, PAD_ID, pack


@pytest.fixture(scope="module")
def config(tiny_vocab):
    return ModelConfig(
        vocab_size=len(tiny_vocab), d_model=16, n_heads=2, n_layers=2, d_ff=24, max_position=48
    )


@pytest.fixture(scope="module")
def model(config):
    return RewriterModel(config, seed=7)


@pytest.fixture(scope="module")
def packed_instances(tiny_corpus, tiny_vocab):
    return [pack(example, example.triples, tiny_vocab) for example in tiny_corpus[:4]]


# -- embeddings and forward -------------------------------------------------------


def probs_of(model, packed):
    """Next-token distribution at every position of one packed sequence."""
    logits, _ = model.forward_batch(make_batch([packed], MaskVariant.TRIPLE_MASK))
    shifted = logits[0] - logits[0].max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def test_embedding_sums_three_tables(model, packed_instances):
    packed = packed_instances[0]
    batch = make_batch([packed], MaskVariant.TRIPLE_MASK)
    out = model.embed_ids(batch["ids"], batch["segs"], batch["poss"])[0]
    assert out.shape == (len(packed), model.config.d_model)
    p = model.params
    for i in (0, packed.len_z, len(packed) - 1):
        expected = (
            p["tok_emb"][packed.token_ids[i]]
            + p["seg_emb"][int(packed.segment_ids[i])]
            + p["pos_emb"][packed.position_ids[i]]
        )
        assert np.array_equal(out[i], expected)


def test_forward_rows_are_distributions(model, packed_instances):
    packed = packed_instances[0]
    probs = probs_of(model, packed)
    assert probs.shape == (len(packed), model.config.vocab_size)
    assert np.all(probs >= 0)
    assert np.allclose(probs.sum(axis=-1), 1.0, atol=1e-12)


def test_forward_rejects_wrong_mask_side(model, packed_instances):
    batch = make_batch(packed_instances[:1], MaskVariant.TRIPLE_MASK)
    batch["bias"] = np.zeros((1, 3, 3))
    with pytest.raises(RewriterError) as err:
        model.forward_batch(batch)
    assert err.value.code == "SHAPE_MISMATCH"


def test_embed_rejects_out_of_range_ids(model):
    ids = np.array([[model.config.vocab_size]])
    zeros = np.array([[0]])
    with pytest.raises(RewriterError) as err:
        model.embed_ids(ids, zeros, zeros)
    assert err.value.code == "ID_OUT_OF_RANGE"
    with pytest.raises(RewriterError):
        model.embed_ids(zeros, zeros, np.array([[model.config.max_position]]))


def test_perturbing_a_rewrite_token_cannot_leak_backward(model, packed_instances):
    for packed in packed_instances[:2]:
        batch = make_batch([packed], MaskVariant.TRIPLE_MASK)
        base, _ = model.forward_batch(batch)
        # flip the token right before the terminal EOS
        g = len(packed) - 2
        assert g >= packed.len_z + packed.len_c  # a rewrite token
        new_ids = list(packed.token_ids)
        new_ids[g] = EOS_ID if new_ids[g] != EOS_ID else PAD_ID
        poked = replace(packed, token_ids=tuple(new_ids))
        out, _ = model.forward_batch(make_batch([poked], MaskVariant.TRIPLE_MASK))
        assert np.array_equal(base[0, :g], out[0, :g]), "history rows moved"
        assert not np.array_equal(base[0, g], out[0, g]), "perturbed row must move"


def test_context_rows_never_see_the_reference(model, tiny_corpus, tiny_vocab):
    example = tiny_corpus[0]
    with_ref = pack(example, example.triples, tiny_vocab)
    bare = pack(example, example.triples, tiny_vocab, include_reference=False)
    full, _ = model.forward_batch(make_batch([with_ref], MaskVariant.TRIPLE_MASK))
    zc_only, _ = model.forward_batch(make_batch([bare], MaskVariant.TRIPLE_MASK))
    n = len(bare)
    assert np.array_equal(full[0, :n], zc_only[0, :n])


def test_batched_and_single_forward_agree(model, packed_instances):
    batch = make_batch(packed_instances, MaskVariant.TRIPLE_MASK)
    stacked, _ = model.forward_batch(batch)
    for b, packed in enumerate(packed_instances):
        alone, _ = model.forward_batch(make_batch([packed], MaskVariant.TRIPLE_MASK))
        n = len(packed)
        assert np.max(np.abs(stacked[b, :n] - alone[0, :n])) < 1e-12


@pytest.mark.parametrize("variant", list(MaskVariant))
@pytest.mark.parametrize("with_reference", [True, False])
def test_make_batch_matches_the_pairwise_oracle(tiny_corpus, tiny_vocab, variant, with_reference):
    triples = [() if variant is MaskVariant.NO_SRL else ex.triples for ex in tiny_corpus]
    packs = [
        pack(ex, t, tiny_vocab, include_reference=with_reference)
        for ex, t in zip(tiny_corpus, triples)
    ]
    tags = [oracle_tags(ex, t, with_reference) for ex, t in zip(tiny_corpus, triples)]
    for chunk, chunk_tags in ((packs, tags), (packs[:1], tags[:1]), (packs[3:8], tags[3:8])):
        batch = make_batch(chunk, variant)
        L = max(len(packed) for packed in chunk)
        assert len(chunk) == 1 or len({len(packed) for packed in chunk}) > 1
        for b, (packed, packed_tags) in enumerate(zip(chunk, chunk_tags)):
            n = len(packed)
            bias = batch["bias"][b]
            want = np.where(oracle_mask(packed_tags, variant), 0.0, NEG_BIAS)
            assert np.array_equal(bias[:n, :n], want)
            assert (bias[:n, n:] == NEG_BIAS).all()  # no row sees a padding column
            assert np.array_equal(bias[n:], np.where(np.eye(L, dtype=bool)[n:], 0.0, NEG_BIAS))
            for key, field in (("ids", "token_ids"), ("segs", "segment_ids"),
                               ("poss", "position_ids")):
                assert batch[key][b].tolist() == [*getattr(packed, field), *[0] * (L - n)]
            start = packed.len_z + packed.len_c  # the BOS column
            targets = list(packed.token_ids[start + 1 :])
            assert with_reference == bool(targets)
            marked = batch["target_mask"][b]
            assert np.flatnonzero(marked).tolist() == list(range(start, start + len(targets)))
            assert batch["target_ids"][b][marked].tolist() == targets
            assert not batch["target_ids"][b][~marked].any()
            # the loss rows: R distinct in-range columns that cover every
            # target, from the BOS column unless that would run past column L
            window = batch["window"][b]
            R = max(max(p.len_r for p in chunk) - 1, 0)
            assert window.shape == (R,) and len(set(window.tolist())) == R
            assert ((0 <= window) & (window < L)).all()
            assert set(np.flatnonzero(marked).tolist()) <= set(window.tolist())
            if R:
                assert window[0] == min(start, L - R)


# -- loss and gradients -----------------------------------------------------------


def manual_nll(probs, packed):
    start = packed.len_z + packed.len_c
    total = 0.0
    for pos in range(start, len(packed) - 1):
        total -= np.log(probs[pos, packed.token_ids[pos + 1]])
    return total


def test_loss_matches_probability_table(model, packed_instances):
    packed = packed_instances[0]
    loss, n_targets, grads = model.loss_and_grads(make_batch([packed], MaskVariant.TRIPLE_MASK))
    assert n_targets == packed.len_r - 1
    assert loss == pytest.approx(manual_nll(probs_of(model, packed), packed), abs=1e-10)
    # in params order: clip_gradients sums the per-tensor norms in dict order
    assert list(grads) == list(model.params)
    assert all(np.all(np.isfinite(g)) for g in grads.values())


def test_loss_requires_reference_targets(model, tiny_corpus, tiny_vocab):
    example = tiny_corpus[0]
    bare = pack(example, example.triples, tiny_vocab, include_reference=False)
    with pytest.raises(RewriterError) as err:
        model.loss_and_grads(make_batch([bare], MaskVariant.TRIPLE_MASK))
    assert err.value.code == "NO_REFERENCE"


def test_gradient_spot_check_against_finite_differences(tiny_vocab, packed_instances):
    cfg = ModelConfig(
        vocab_size=len(tiny_vocab), d_model=8, n_heads=2, n_layers=1, d_ff=12, max_position=48
    )
    model = RewriterModel(cfg, seed=3)
    batch = make_batch(packed_instances[:1], MaskVariant.TRIPLE_MASK)
    grads = model.loss_and_grads(batch)[2]
    eps = 1e-5
    coords = [
        ("tok_emb", (5, 3)),
        ("layers.0.attn.Wq", (0, 1)),
        ("layers.0.ff.W1", (2, 4)),
        ("layers.0.ln1.g", (1,)),
        ("out.b", (7,)),
    ]
    for name, idx in coords:
        got = grads[name][idx]
        saved = model.params[name][idx]
        model.params[name][idx] = saved + eps
        up = model.loss_and_grads(batch)[0]
        model.params[name][idx] = saved - eps
        down = model.loss_and_grads(batch)[0]
        model.params[name][idx] = saved
        fd = (up - down) / (2 * eps)
        rel = abs(fd - got) / max(1e-8, abs(fd) + abs(got))
        assert rel < 1e-4, f"{name}{idx}: fd={fd} grad={got}"


# -- parameters --------------------------------------------------------------------


def test_parameter_count_formula(config, model):
    V, D, F, P, N = (
        config.vocab_size,
        config.d_model,
        config.d_ff,
        config.max_position,
        config.n_layers,
    )
    per_layer = 4 * D * D + 4 * D + 2 * D + (D * F + F) + (F * D + D) + 2 * D
    expected = V * D + 3 * D + P * D + N * per_layer + D * V + V
    assert model.parameter_count() == expected


def test_mask_variant_never_changes_parameter_count(config):
    counts = {
        variant: RewriterModel(replace(config, mask_variant=variant), seed=0).parameter_count()
        for variant in MaskVariant
    }
    assert len(set(counts.values())) == 1


def test_config_validation():
    with pytest.raises(RewriterError) as err:
        ModelConfig(vocab_size=50, d_model=10, n_heads=4)
    assert err.value.code == "CONFIG_INVALID"
    with pytest.raises(RewriterError) as err:
        ModelConfig(vocab_size=12)  # one short of the 13 reserved tokens
    assert err.value.code == "CONFIG_INVALID"
    assert ModelConfig(vocab_size=13).vocab_size == len(RESERVED_TOKENS) == 13


# -- greedy decoding ---------------------------------------------------------------


def surgery_model(config, **bias):
    m = RewriterModel(config, seed=0)
    for p in m.params.values():
        p[...] = 0.0
    for token_id, value in bias.items():
        m.params["out.b"][int(token_id)] = value
    return m


def test_decode_stops_on_eos_without_emitting(config, tiny_corpus, tiny_vocab):
    model = surgery_model(config, **{str(EOS_ID): 5.0})
    example = tiny_corpus[0]
    packed = pack(example, example.triples, tiny_vocab, include_reference=False)
    assert decode_corpus(model, [packed], 8, tiny_vocab) == [[]]


def test_decode_tie_breaks_toward_lowest_id(config, tiny_corpus, tiny_vocab):
    # all-zero parameters leave every logit equal, so the argmax must land on id 0
    model = surgery_model(config)
    example = tiny_corpus[0]
    packed = pack(example, example.triples, tiny_vocab, include_reference=False)
    assert decode_corpus(model, [packed], 4, tiny_vocab) == [[tiny_vocab.token_of(PAD_ID)] * 4]


def test_decode_respects_max_steps(config, tiny_corpus, tiny_vocab):
    tok = 20
    model = surgery_model(config, **{str(tok): 5.0})
    example = tiny_corpus[0]
    packed = pack(example, example.triples, tiny_vocab, include_reference=False)
    assert decode_corpus(model, [packed], 3, tiny_vocab) == [[tiny_vocab.token_of(tok)] * 3]


@pytest.mark.parametrize("n_packs", [1, 0])
def test_decode_rejects_zero_budget(model, packed_instances, tiny_vocab, n_packs):
    with pytest.raises(RewriterError) as err:
        decode_corpus(model, packed_instances[:n_packs], 0, tiny_vocab)
    assert err.value.code == "CONFIG_INVALID"


def test_decode_budget_beyond_position_table_fails_up_front(config, tiny_corpus, tiny_vocab):
    # a model that never emits EOS fills every rewrite position id the table has
    model = surgery_model(replace(config, max_position=16), **{"20": 5.0})
    example = tiny_corpus[0]
    packed = pack(example, example.triples, tiny_vocab, include_reference=False)
    assert len(decode_corpus(model, [packed], 16, tiny_vocab)[0]) == 16
    for packs in ([packed], []):
        with pytest.raises(RewriterError) as err:
            decode_corpus(model, packs, 40, tiny_vocab)
        assert err.value.code == "TOO_LONG"


# -- checkpoints -------------------------------------------------------------------


def test_checkpoint_round_trip(tmp_path, model, packed_instances):
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    assert loaded.config == model.config
    for name, p in model.params.items():
        assert loaded.params[name].dtype == np.float32  # decoded as stored
        assert np.allclose(loaded.params[name], p, atol=1e-6)
    batch = make_batch(packed_instances[:1], MaskVariant.TRIPLE_MASK)
    a, _ = model.forward_batch(batch)
    b, _ = loaded.forward_batch(batch)
    assert np.max(np.abs(a - b)) < 1e-4  # float32 storage wiggle only


def test_checkpoint_double_round_trip_is_exact(tmp_path, model):
    first = str(tmp_path / "a.ckpt")
    second = str(tmp_path / "b.ckpt")
    save_checkpoint(model, first)
    loaded = load_checkpoint(first)
    save_checkpoint(loaded, second)
    again = load_checkpoint(second)
    for name, p in loaded.params.items():
        assert np.array_equal(again.params[name], p)


def test_load_checkpoint_draws_no_random_init(tmp_path, config, monkeypatch):
    model = RewriterModel(replace(config, n_layers=1), seed=3)
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(model, path)

    def no_init(*args):
        raise AssertionError("load_checkpoint initialised weights it overwrites")

    monkeypatch.setattr("srl_rewriter.model._init_parameter", no_init)
    loaded, want = load_checkpoint(path), model.stored_copy()
    assert loaded.config == want.config and loaded.params.keys() == want.params.keys()
    for name, p in want.params.items():
        assert loaded.params[name].dtype == p.dtype == np.float32
        assert np.array_equal(loaded.params[name], p)


def split_checkpoint(blob):
    """(header dict, weight bytes) of a checkpoint file's bytes."""
    size = int.from_bytes(blob[8:16], "little")
    return json.loads(blob[16 : 16 + size]), bytes(blob[16 + size :])


def join_checkpoint(blob, header, weights):
    raw = header if isinstance(header, bytes) else json.dumps(header, sort_keys=True).encode()
    return bytes(blob[:8]) + len(raw).to_bytes(8, "little") + raw + weights


def test_checkpoint_rejects_foreign_bytes(tmp_path, model):
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, str(path))
    blob = bytearray(path.read_bytes())

    wrong_magic = tmp_path / "magic.ckpt"
    wrong_magic.write_bytes(b"XXXX" + bytes(blob[4:]))
    with pytest.raises(RewriterError) as err:
        load_checkpoint(str(wrong_magic))
    assert err.value.code == "CHECKPOINT_MISMATCH"

    wrong_version = tmp_path / "version.ckpt"
    wrong_version.write_bytes(bytes(blob[:4]) + (99).to_bytes(4, "little") + bytes(blob[8:]))
    with pytest.raises(RewriterError) as err:
        load_checkpoint(str(wrong_version))
    assert err.value.code == "CHECKPOINT_MISMATCH"

    truncated = tmp_path / "cut.ckpt"
    truncated.write_bytes(bytes(blob[:-64]))
    with pytest.raises(RewriterError) as err:
        load_checkpoint(str(truncated))
    assert err.value.code == "CHECKPOINT_MISMATCH"

    header, weights = split_checkpoint(blob)
    config = header["config"]
    for name, bad_header in (
        ("json", b"{not json"),
        ("no-config", {"params": header["params"]}),
        ("no-params", {"config": config}),
        ("unknown-key", {**header, "config": {**config, "bogus": 1}}),
        ("bad-variant", {**header, "config": {**config, "mask_variant": "sideways"}}),
        ("tied", {**header, "config": {**config, "tie_embeddings": True}}),
        ("zero-heads", {**header, "config": {**config, "n_heads": 0}}),
        ("negative-d-ff", {**header, "config": {**config, "d_ff": -1}}),
        ("zero-layers", {**header, "config": {**config, "n_layers": 0}}),
        ("float-vocab", {**header, "config": {**config, "vocab_size": config["vocab_size"] + 0.0}}),
    ):
        bad = tmp_path / f"{name}.ckpt"
        bad.write_bytes(join_checkpoint(blob, bad_header, weights))
        with pytest.raises(RewriterError) as err:
            load_checkpoint(str(bad))
        assert err.value.code == "CHECKPOINT_MISMATCH", name


def test_checkpoint_refuses_every_truncation_and_trailing_bytes(tmp_path, config):
    path = tmp_path / "model.ckpt"
    save_checkpoint(RewriterModel(replace(config, n_layers=1), seed=0), str(path))
    blob = path.read_bytes()
    header_end = 16 + int.from_bytes(blob[8:16], "little")
    first_array_end = header_end + 4 * config.vocab_size * config.d_model  # tok_emb
    cut = tmp_path / "cut.ckpt"
    for end in [*range(first_array_end + 1), len(blob) - 1]:
        cut.write_bytes(blob[:end])
        with pytest.raises(RewriterError) as err:
            load_checkpoint(str(cut))
        assert err.value.code == "CHECKPOINT_MISMATCH", end
    cut.write_bytes(blob + b"\0\0\0\0")
    with pytest.raises(RewriterError) as err:
        load_checkpoint(str(cut))
    assert err.value.code == "CHECKPOINT_MISMATCH"
    assert f"{len(blob) - header_end + 4} bytes of weights" in err.value.message


def test_checkpoint_header_sizes_are_checked_before_allocating(tmp_path, model):
    # a header that declares a vocabulary far beyond any memory, over a small file
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, str(path))
    blob = path.read_bytes()
    header, weights = split_checkpoint(blob)
    huge = replace(model.config, vocab_size=10**15)
    header = {
        "config": huge.to_dict(),
        "params": [[name, list(shape)] for name, shape in _parameter_shapes(huge)],
    }
    path.write_bytes(join_checkpoint(blob, header, weights))
    with pytest.raises(RewriterError) as err:
        load_checkpoint(str(path))
    assert err.value.code == "CHECKPOINT_MISMATCH"


def test_checkpoint_refuses_a_vocabulary_short_of_the_reserved_tokens(tmp_path, model):
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, str(path))
    blob = path.read_bytes()
    header, weights = split_checkpoint(blob)
    header["config"]["vocab_size"] = 12
    path.write_bytes(join_checkpoint(blob, header, weights))
    with pytest.raises(RewriterError) as err:
        load_checkpoint(str(path))
    assert err.value.code == "CHECKPOINT_MISMATCH"
    assert "13 reserved tokens" in err.value.message


@pytest.mark.parametrize("key,value", [("dropout_rate", 0.0), ("tie_embeddings", False)])
def test_checkpoint_with_a_legacy_key_loads(tmp_path, model, packed_instances, key, value):
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, str(path))
    blob = path.read_bytes()
    header, weights = split_checkpoint(blob)
    assert key not in header["config"]
    header["config"][key] = value
    legacy = tmp_path / "legacy.ckpt"
    legacy.write_bytes(join_checkpoint(blob, header, weights))
    loaded = load_checkpoint(str(legacy))
    assert loaded.config == model.config
    batch = make_batch(packed_instances[:1], MaskVariant.TRIPLE_MASK)
    a, _ = load_checkpoint(str(path)).forward_batch(batch)
    b, _ = loaded.forward_batch(batch)
    assert np.array_equal(a, b)
