"""Prefix-cached batched greedy decoding against the full-recompute oracle.

Each hypothesis is checked with one oracle pass over its prefix, BOS and the
hypothesis itself: every emitted token is that pass's argmax at the row before
it, and the row after the last is EOS unless the budget ended the decode.  By
induction on the steps, the hypothesis is then the greedy one.

The corpus and the model shape are those of criterion 8: 2,000 sessions split
1,600/200/200, d_model 64, 4 heads, 2 layers, d_ff 128, 24 decode steps.  The
oracle checks run on float64 weights.  Decoding in float32, the dtype a
checkpoint stores, is pinned to the float64 decode of the same values.
"""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from oracles import oracle_argmax, oracle_path_logits
from test_training import split_packs

from srl_rewriter import model as model_module
from srl_rewriter.core import RewriterError
from srl_rewriter.generator import GeneratorConfig, sample_corpus, split_corpus
from srl_rewriter.masks import NEG_BIAS, MaskVariant
from srl_rewriter.model import (
    _DECODE_BATCH,
    _KV_ROOM,
    _PREFIX_SLICE,
    ModelConfig,
    PrefixCache,
    RewriterModel,
    decode_corpus,
    load_checkpoint,
    make_batch,
)
from srl_rewriter.packing import BOS_ID, EOS_ID, PAD_ID, Vocabulary, build_vocabulary
from srl_rewriter.srl import TripleMode, TripleSource
from srl_rewriter.training import TrainConfig, prepare_instances, train

MAX_STEPS = 24
BENCHMARK_CHECKPOINT = Path(__file__).parent.parent / "perfbench" / "weights" / "gold_triple.ckpt"
SOURCES = {
    MaskVariant.NO_SRL: TripleSource(TripleMode.NONE),
    MaskVariant.BI_MASK: TripleSource(TripleMode.GOLD),
    MaskVariant.TRIPLE_MASK: TripleSource(TripleMode.GOLD),
}


@pytest.fixture(scope="module")
def splits():
    corpus = sample_corpus(GeneratorConfig(n_sessions=2000, seed=0, cross_turn_rate=0.3))
    train_set, dev_set, test_set = split_corpus(corpus)
    return train_set, dev_set, test_set, build_vocabulary(corpus)


def model_config(vocab, variant):
    return ModelConfig(
        vocab_size=len(vocab), d_model=64, n_heads=4, n_layers=2, d_ff=128,
        max_position=64, mask_variant=variant,
    )


@pytest.fixture(scope="module")
def models(splits):
    """Random-init and briefly trained weights for every mask variant; the
    trained ones stop on EOS at different lengths."""
    train_set, dev_set, _, vocab = splits
    out = {}
    for variant, source in SOURCES.items():
        out[variant, "random"] = RewriterModel(model_config(vocab, variant), seed=5)
        config = TrainConfig(
            batch_size=32, lr=3e-3, max_steps=40, eval_every=40, max_decode_steps=MAX_STEPS,
        )
        model = RewriterModel(model_config(vocab, variant), seed=6)
        data = split_packs(train_set, dev_set[:4], vocab, source)
        train(model, *data, vocab, config)  # trains ``model`` in place
        out[variant, "trained"] = model
    return out


def prefixes(splits, variant, split):
    examples = {"dev": splits[1], "test": splits[2]}[split]
    return prepare_instances(examples, splits[3], SOURCES[variant], 0, include_reference=False)


def check_greedy(model, packs, hyps, vocab, max_steps=MAX_STEPS):
    """Assert that ``hyps`` are the greedy decodes of ``packs``; returns each
    hypothesis's ids and the oracle's logits of every step it took."""
    assert len(hyps) == len(packs)
    expected = []
    for packed, hyp in zip(packs, hyps):
        ids = vocab.encode(hyp)
        assert EOS_ID not in ids and len(ids) <= max_steps
        rows = oracle_path_logits(packed, model, ids[: max_steps - 1])
        assert [oracle_argmax(row) for row in rows] == (ids + [EOS_ID])[: len(rows)]
        expected.append((ids, rows))
    return expected


def in_dtype(model, dtype):
    """The same model with its weights cast to ``dtype``."""
    return RewriterModel._from_params(
        model.config, {name: v.astype(dtype) for name, v in model.params.items()}
    )


def largest_step_logit_gap(a, b, packs, hyps, vocab, max_steps):
    """Largest gap between the step logits of models ``a`` and ``b``, batch by
    batch, each row fed its hypothesis up to the step that ended it."""
    worst = 0.0
    for lo in range(0, len(packs), _DECODE_BATCH):
        fed_ids = [vocab.encode(hyp) for hyp in hyps[lo : lo + _DECODE_BATCH]]
        caches = [PrefixCache(m, packs[lo : lo + _DECODE_BATCH], max_steps) for m in (a, b)]
        for t in range(min(max_steps, max(map(len, fed_ids)) + 1)):
            fed = np.array([BOS_ID if t == 0 else (ids[t - 1] if t <= len(ids) else PAD_ID)
                            for ids in fed_ids])
            live = np.array([t <= len(ids) for ids in fed_ids])
            gap = np.abs(caches[0].step(fed) - caches[1].step(fed))
            worst = max(worst, float(gap[live].max()))
    return worst


def worst_step_logit_error(model, packs, expected):
    """Largest gap between the cached step logits of one batch of ``packs``
    and the oracle's, each row fed its hypothesis's tokens."""
    cache = PrefixCache(model, packs, MAX_STEPS)
    worst = 0.0
    for t in range(max(len(logits) for _, logits in expected)):
        fed = [BOS_ID if t == 0 else (hyp[t - 1] if t <= len(hyp) else PAD_ID)
               for hyp, _ in expected]
        got = cache.step(np.array(fed))
        for b, (_, logits) in enumerate(expected):
            if t < len(logits):
                worst = max(worst, float(np.max(np.abs(got[b] - logits[t]))))
    return worst


@pytest.mark.parametrize("weights", ["random", "trained"])
@pytest.mark.parametrize("variant", list(MaskVariant), ids=lambda v: v.value)
@pytest.mark.parametrize("split", ["dev", "test"])
def test_cached_decode_matches_full_recompute(splits, models, variant, weights, split):
    model, vocab = models[variant, weights], splits[3]
    packs = prefixes(splits, variant, split)
    # the first batch's shortest and longest prefixes run in different slices
    lengths = [len(p) for p in packs[:_DECODE_BATCH]]
    assert np.argmin(lengths) // _PREFIX_SLICE != np.argmax(lengths) // _PREFIX_SLICE
    hyps = decode_corpus(model, packs, MAX_STEPS, vocab)
    expected = check_greedy(model, packs, hyps, vocab)
    # decode_corpus sorts by prefix length; its output stays in input order
    shuffled = np.random.default_rng(0).permutation(len(packs))
    for order in (shuffled, np.arange(len(packs))[::-1]):
        reordered = [packs[i] for i in order]
        assert decode_corpus(model, reordered, MAX_STEPS, vocab) == [hyps[i] for i in order]

    worst = max(
        worst_step_logit_error(model, packs[lo : lo + _DECODE_BATCH], expected[lo : lo + _DECODE_BATCH])
        for lo in range(0, len(packs), _DECODE_BATCH)
    )
    assert worst < 1e-9, f"step logits differ by {worst:.2e}"


def test_key_value_room_grown_step_by_step_matches_full_recompute(splits, models, monkeypatch):
    # room for one rewrite column at first, so each batch of the random
    # weights, which run to the budget, doubles its room five times
    monkeypatch.setattr("srl_rewriter.model._KV_ROOM", 1)
    model, vocab = models[MaskVariant.TRIPLE_MASK, "random"], splits[3]
    packs = prefixes(splits, MaskVariant.TRIPLE_MASK, "dev")
    hyps = decode_corpus(model, packs, MAX_STEPS, vocab)
    assert all(len(hyp) == MAX_STEPS for hyp in hyps)
    expected = check_greedy(model, packs, hyps, vocab)
    worst = max(
        worst_step_logit_error(model, packs[lo : lo + _DECODE_BATCH], expected[lo : lo + _DECODE_BATCH])
        for lo in range(0, len(packs), _DECODE_BATCH)
    )
    assert worst < 1e-9, f"step logits differ by {worst:.2e}"

    cache = PrefixCache(model, packs[:2], MAX_STEPS)
    rooms = []
    for _ in range(MAX_STEPS):
        cache.step(np.full(2, BOS_ID))
        rooms.append(cache.kv[-1][1].shape[2] - cache.prefix_len)
    assert sorted(set(rooms)) == [1, 2, 4, 8, 16, MAX_STEPS]
    assert all(rooms[t] > t for t in range(MAX_STEPS))


def test_key_value_room_grown_in_float32_stays_float32(splits, models, monkeypatch):
    # room for one rewrite column at first, so every batch grows its room
    # several times; float64 buffers would decode the same hypotheses, so the
    # dtypes are checked as well
    monkeypatch.setattr("srl_rewriter.model._KV_ROOM", 1)
    model, vocab = models[MaskVariant.TRIPLE_MASK, "trained"], splits[3]
    stored = model.stored_copy()
    assert {v.dtype for v in stored.params.values()} == {np.dtype(np.float32)}
    packs = prefixes(splits, MaskVariant.TRIPLE_MASK, "dev")
    hyps = decode_corpus(stored, packs, MAX_STEPS, vocab)
    assert hyps == decode_corpus(in_dtype(stored, np.float64), packs, MAX_STEPS, vocab)

    cache = PrefixCache(stored, packs[:2], MAX_STEPS)
    for _ in range(MAX_STEPS):
        assert cache.step(np.full(2, BOS_ID)).dtype == np.float32
    assert cache.kv[0][0].shape[2] == cache.prefix_len + MAX_STEPS  # grown to the budget
    assert cache.bias.dtype == np.float32
    assert {m.dtype for kv in cache.kv for m in kv} == {np.dtype(np.float32)}


@pytest.mark.parametrize("corpus", ["held-out", "criterion-8 test"])
def test_float32_decode_equals_the_float64_decode_of_the_same_weights(splits, corpus):
    # the committed benchmark weights, trained on criterion 8's training split,
    # decoded as stored and, as the oracle, widened to float64
    stored = load_checkpoint(str(BENCHMARK_CHECKPOINT))
    vocab = Vocabulary.load(str(BENCHMARK_CHECKPOINT) + ".vocab")
    assert {v.dtype for v in stored.params.values()} == {np.dtype(np.float32)}
    oracle = in_dtype(stored, np.float64)
    if corpus == "held-out":  # the rewrite benchmark's held-out seed at workload seed 0
        examples = sample_corpus(GeneratorConfig(n_sessions=200, seed=1000, cross_turn_rate=0.3))
    else:
        examples = splits[2]
    packs = prepare_instances(examples, vocab, SOURCES[MaskVariant.TRIPLE_MASK], 0,
                              include_reference=False)
    hyps = decode_corpus(oracle, packs, 32, vocab)
    gap = largest_step_logit_gap(stored, oracle, packs, hyps, vocab, 32)
    assert decode_corpus(stored, packs, 32, vocab) == hyps, f"largest step-logit gap {gap:.2e}"
    # float32 rounding (2**-24 relative) over sums of 64 to 128 terms, on logits
    # of order 10; measured about 5e-6.  Zero would mean no float32 arithmetic ran.
    assert 0.0 < gap < 1e-4, f"largest step-logit gap {gap:.2e}"


def test_decode_peak_memory_follows_the_steps_taken(splits, models, monkeypatch):
    # criterion 8's test split at the rewrite command's budget of 32 steps;
    # the trained weights stop within 24 steps, most rows well inside the
    # first 16 columns of room
    model, vocab = models[MaskVariant.TRIPLE_MASK, "trained"], splits[3]
    packs = prefixes(splits, MaskVariant.TRIPLE_MASK, "test")

    def peak(model, room):
        monkeypatch.setattr("srl_rewriter.model._KV_ROOM", room)
        decode_corpus(model, packs, 32, vocab)  # first-call allocations stay out of the reading
        tracemalloc.start()
        try:
            decode_corpus(model, packs, 32, vocab)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # 64-wide batches of float64 weights peak at 8.3 MB with room grown by
    # use, and at 10.4 MB with room for the whole budget from the start
    assert peak(model, 32) > 9.3e6
    grown = peak(model, _KV_ROOM)
    assert grown < 9.3e6, f"peak {grown / 1e6:.2f} MB"
    # the float32 weights a checkpoint stores decode in float32 buffers and
    # peak at 4.2 MB, and at 5.2 MB with room for the budget: 64 wide in
    # float32 costs within 5% of the 4.16 MB that 32 wide took in float64
    stored = model.stored_copy()
    assert peak(stored, 32) > 1.05 * 4.16e6
    grown = peak(stored, _KV_ROOM)
    assert grown < 1.05 * 4.16e6, f"peak {grown / 1e6:.2f} MB"


def test_prefix_pass_last_block_writes_keys_and_values_only(splits, models, monkeypatch):
    # no step reads the prefix's last-layer output, so that block runs neither
    # layer norm nor the FFN: every other block runs two layer norms and one
    # GELU per prefix-pass slice
    model = models[MaskVariant.TRIPLE_MASK, "random"]
    packs = prefixes(splits, MaskVariant.TRIPLE_MASK, "dev")[: 2 * _PREFIX_SLICE + 1]
    slices = -(-len(packs) // _PREFIX_SLICE)
    calls = {"_layer_norm_forward": 0, "_gelu_forward": 0}
    for name in calls:
        def counted(*args, name=name, kernel=getattr(model_module, name)):
            calls[name] += 1
            return kernel(*args)
        monkeypatch.setattr(model_module, name, counted)
    cache = PrefixCache(model, packs, MAX_STEPS)
    blocks = model.config.n_layers - 1
    assert calls == {"_layer_norm_forward": 2 * blocks * slices, "_gelu_forward": blocks * slices}
    cache.step(np.full(len(packs), BOS_ID))  # a step runs the whole of every block
    assert calls["_layer_norm_forward"] == 2 * blocks * slices + 2 * model.config.n_layers


@pytest.mark.parametrize("weights", ["random", "trained"])
def test_prefix_slices_of_one_batch_match_full_recompute(splits, models, weights):
    # the shortest and the longest prefix run in different prefix-pass slices
    model = models[MaskVariant.TRIPLE_MASK, weights]
    packs = sorted(prefixes(splits, MaskVariant.TRIPLE_MASK, "dev"), key=len)
    batch = [packs[0], *packs[1 : _PREFIX_SLICE + 1], packs[-1]]
    assert len(batch) > _PREFIX_SLICE and len(batch[0]) < len(batch[-1])
    assert len(batch) <= _DECODE_BATCH  # one batch, one prefix cache
    hyps = decode_corpus(model, batch, MAX_STEPS, splits[3])
    expected = check_greedy(model, batch, hyps, splits[3])
    worst = worst_step_logit_error(model, batch, expected)
    assert worst < 1e-9, f"step logits differ by {worst:.2e}"


def test_step_bias_masks_each_prefix_padding_only(splits, models):
    model = models[MaskVariant.TRIPLE_MASK, "random"]
    packs = sorted(prefixes(splits, MaskVariant.TRIPLE_MASK, "dev"), key=len)
    batch = [packs[0], packs[len(packs) // 2], packs[-1]]
    cache = PrefixCache(model, batch, MAX_STEPS)
    L = len(packs[-1])
    assert cache.bias.shape == (len(batch), 1, L + MAX_STEPS)
    for b, packed in enumerate(batch):
        row = cache.bias[b, 0]
        assert np.all(row[: len(packed)] == 0.0) and np.all(row[L:] == 0.0)
        assert np.all(row[len(packed) : L] == NEG_BIAS)
    assert np.count_nonzero(cache.bias) == sum(L - len(p) for p in batch) > 0


def test_batched_decode_equals_one_at_a_time(splits, models, monkeypatch):
    model, vocab = models[MaskVariant.TRIPLE_MASK, "trained"], splits[3]
    packs = sorted(prefixes(splits, MaskVariant.TRIPLE_MASK, "dev"), key=len)
    with monkeypatch.context() as patch:  # every pack a batch of its own
        patch.setattr("srl_rewriter.model._DECODE_BATCH", 1)
        singles = dict(zip(map(id, packs), decode_corpus(model, packs, MAX_STEPS, vocab)))
    by_length: dict[int, list] = {}
    for p in packs:
        by_length.setdefault(len(singles[id(p)]), []).append(p)
    assert len(by_length) > 1, "the trained model must stop at different lengths"
    # shortest and longest prefixes together, and rows that stop at different steps
    chunks = [
        [packs[0], packs[-1], packs[1], packs[-2]],
        [group[0] for group in by_length.values()],
    ]
    for chunk in chunks:
        assert len(chunk) <= _DECODE_BATCH
        assert decode_corpus(model, chunk, MAX_STEPS, vocab) == [singles[id(p)] for p in chunk]
    assert len(packs[0]) < len(packs[-1])
    assert decode_corpus(model, packs, MAX_STEPS, vocab) == [singles[id(p)] for p in packs]
    with monkeypatch.context() as patch:  # all of them one batch, many prefix slices
        patch.setattr("srl_rewriter.model._DECODE_BATCH", len(packs))
        assert decode_corpus(model, packs, MAX_STEPS, vocab) == [singles[id(p)] for p in packs]


def test_budget_hits_stop_every_row_at_max_steps(splits, models):
    model = models[MaskVariant.BI_MASK, "random"]
    packs = prefixes(splits, MaskVariant.BI_MASK, "test")[:_DECODE_BATCH]
    hyps = decode_corpus(model, packs, 3, splits[3])
    assert [len(h) for h in hyps] == [3] * len(packs)
    check_greedy(model, packs, hyps, splits[3], max_steps=3)


def test_decoding_never_computes_the_gelu_slope(splits, models, monkeypatch):
    # the slope is for the backward pass only; the prefix pass and the steps
    # run the same blocks without it
    model, vocab = models[MaskVariant.TRIPLE_MASK, "trained"], splits[3]
    packs = prefixes(splits, MaskVariant.TRIPLE_MASK, "dev")
    hyps = decode_corpus(model, packs, MAX_STEPS, vocab)

    def refuse(*args):
        raise AssertionError("GELU slope computed")

    monkeypatch.setattr("srl_rewriter.model._gelu_slope", refuse)
    train_packs = prepare_instances(splits[0][:4], vocab, SOURCES[MaskVariant.TRIPLE_MASK], 0)
    with pytest.raises(AssertionError, match="GELU slope computed"):  # the patch is live
        model.loss_and_grads(make_batch(train_packs, MaskVariant.TRIPLE_MASK))
    assert decode_corpus(model, packs, MAX_STEPS, vocab) == hyps


def test_decode_refuses_a_prefix_with_a_rewrite_region(splits, models):
    model = models[MaskVariant.TRIPLE_MASK, "random"]
    train_set, _, _, vocab = splits
    full = prepare_instances(train_set[:2], vocab, SOURCES[MaskVariant.TRIPLE_MASK], 0)
    with pytest.raises(RewriterError) as err:
        decode_corpus(model, full, MAX_STEPS, vocab)
    assert err.value.code == "SHAPE_MISMATCH"
