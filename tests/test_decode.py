"""Prefix-cached batched greedy decoding against the full-recompute oracle.

The corpus and the model shape are those of criterion 8: 2,000 sessions split
1,600/200/200, d_model 64, 4 heads, 2 layers, d_ff 128, 24 decode steps.
"""

import numpy as np
import pytest

from oracles import oracle_greedy_decode
from test_training import split_packs

from srl_rewriter.core import RewriterError
from srl_rewriter.generator import GeneratorConfig, sample_corpus, split_corpus
from srl_rewriter.masks import NEG_BIAS, MaskVariant
from srl_rewriter.model import (
    _DECODE_BATCH,
    _PREFIX_SLICE,
    ModelConfig,
    PrefixCache,
    RewriterModel,
    decode_corpus,
)
from srl_rewriter.packing import BOS_ID, PAD_ID, build_vocabulary
from srl_rewriter.srl import TripleMode, TripleSource
from srl_rewriter.training import TrainConfig, prepare_instances, train

MAX_STEPS = 24
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
        out[variant, "trained"] = train(model, *data, vocab, config).final_model
    return out


def prefixes(splits, variant, split):
    examples = {"dev": splits[1], "test": splits[2]}[split]
    return prepare_instances(examples, splits[3], SOURCES[variant], 0, include_reference=False)


def oracle_tokens(vocab, expected):
    """The oracle's hypotheses as the tokens ``decode_corpus`` returns."""
    return [vocab.decode(hyp) for hyp, _ in expected]


def worst_step_logit_error(model, packs, expected):
    """Largest gap between the cached step logits of one batch of ``packs``
    and the oracle's, each row fed the oracle's tokens."""
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
    expected = [oracle_greedy_decode(p, model, MAX_STEPS) for p in packs]
    hyps = oracle_tokens(vocab, expected)
    assert decode_corpus(model, packs, MAX_STEPS, vocab) == hyps
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


@pytest.mark.parametrize("weights", ["random", "trained"])
def test_prefix_slices_of_one_batch_match_full_recompute(splits, models, weights):
    # the shortest and the longest prefix run in different prefix-pass slices
    model = models[MaskVariant.TRIPLE_MASK, weights]
    packs = sorted(prefixes(splits, MaskVariant.TRIPLE_MASK, "dev"), key=len)
    batch = [packs[0], *packs[1 : _PREFIX_SLICE + 1], packs[-1]]
    assert len(batch) > _PREFIX_SLICE and len(batch[0]) < len(batch[-1])
    expected = [oracle_greedy_decode(p, model, MAX_STEPS) for p in batch]
    assert len(batch) <= _DECODE_BATCH  # one batch, one prefix cache
    assert decode_corpus(model, batch, MAX_STEPS, splits[3]) == oracle_tokens(splits[3], expected)
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
    assert hyps == oracle_tokens(splits[3], [oracle_greedy_decode(p, model, 3) for p in packs])


def test_decode_refuses_a_prefix_with_a_rewrite_region(splits, models):
    model = models[MaskVariant.TRIPLE_MASK, "random"]
    train_set, _, _, vocab = splits
    full = prepare_instances(train_set[:2], vocab, SOURCES[MaskVariant.TRIPLE_MASK], 0)
    with pytest.raises(RewriterError) as err:
        decode_corpus(model, full, MAX_STEPS, vocab)
    assert err.value.code == "SHAPE_MISMATCH"
