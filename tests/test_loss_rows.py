"""The forward pass and loss-row training against the full-row oracles.

``loss_and_grads`` runs the last layer and the logits head only on a window
of rows around each example's targets; ``oracle_loss_and_grads`` runs them
on every row, through ``oracle_forward`` and textbook backward formulas that
share no kernel with the library.  The corpus and the model shape are those
of criterion 8.
"""

import numpy as np
import pytest

from oracles import oracle_forward, oracle_loss_and_grads

from srl_rewriter.generator import GeneratorConfig, sample_corpus, split_corpus
from srl_rewriter.masks import MaskVariant
from srl_rewriter.model import ModelConfig, RewriterModel, make_batch
from srl_rewriter.packing import build_vocabulary
from srl_rewriter.srl import TripleMode, TripleSource
from srl_rewriter.training import prepare_instances

SOURCES = {
    MaskVariant.NO_SRL: TripleSource(TripleMode.NONE),
    MaskVariant.BI_MASK: TripleSource(TripleMode.GOLD),
    MaskVariant.TRIPLE_MASK: TripleSource(TripleMode.GOLD),
}


@pytest.fixture(scope="module")
def corpus():
    examples = sample_corpus(GeneratorConfig(n_sessions=2000, seed=0, cross_turn_rate=0.3))
    return split_corpus(examples)[0], build_vocabulary(examples)


def clipped_pair(packs):
    """Two packs whose batch clips a window: the first pack's first target
    sits so late that a window as wide as the second's targets would run past
    the last row, so it must start earlier."""
    for late in packs:
        for wide in packs:
            first, widest = late.len_z + late.len_c, wide.len_r - 1
            if first + widest > max(len(late), len(wide)):
                return [late, wide]
    raise AssertionError("no pair of packs clips a window")


def window_is_clipped(batch):
    mask = batch["target_mask"]
    first = np.argmax(mask, axis=1)
    widest = int(mask.sum(axis=1).max())
    return bool((first > mask.shape[1] - widest).any())


def assert_matches_oracle(model, seqs):
    batch = make_batch(seqs, model.config.mask_variant)
    n = int(batch["target_mask"].sum())
    want_loss, want_n, want = oracle_loss_and_grads(model, batch, loss_scale=1.0 / n)
    loss, got_n, got = model.loss_and_grads(batch, loss_scale=1.0 / n)
    assert got_n == want_n == n
    assert abs(loss - want_loss) <= 1e-12 * abs(want_loss)
    bound = 1e-12 * max(float(np.abs(g).max()) for g in want.values())
    for name, g in want.items():
        err = float(np.abs(got[name] - g).max())
        assert err <= bound, f"B={len(seqs)} {name}: {err:.3g} > {bound:.3g}"


def criterion_8_model(vocab, variant):
    config = ModelConfig(
        vocab_size=len(vocab), d_model=64, n_heads=4, n_layers=2, d_ff=128,
        max_position=64, mask_variant=variant,
    )
    return RewriterModel(config, seed=5)


@pytest.mark.parametrize("variant", list(MaskVariant), ids=lambda v: v.value)
def test_forward_matches_oracle_forward(corpus, variant):
    train_set, vocab = corpus
    packs = prepare_instances(train_set[:64], vocab, SOURCES[variant])
    model = criterion_8_model(vocab, variant)
    for seqs in (packs[:1], packs[1:9], packs[32:64]):
        batch = make_batch(seqs, variant)
        want = oracle_forward(model, batch)[0]
        got = model.forward_batch(batch)[0]
        assert got.shape == want.shape
        assert float(np.abs(got - want).max()) <= 1e-12 * float(np.abs(want).max())


@pytest.mark.parametrize("variant", list(MaskVariant), ids=lambda v: v.value)
def test_loss_and_grads_match_full_row_oracle(corpus, variant):
    train_set, vocab = corpus
    packs = prepare_instances(train_set[:64], vocab, SOURCES[variant])
    model = criterion_8_model(vocab, variant)
    for seqs in (packs[:1], packs[1:9], packs[32:64]):
        assert_matches_oracle(model, seqs)


def test_clipped_window_matches_full_row_oracle(corpus):
    # under gold triples no two training packs clip a window, so the clipped
    # batch comes from the variant without triples
    train_set, vocab = corpus
    variant = MaskVariant.NO_SRL
    packs = prepare_instances(train_set, vocab, SOURCES[variant])
    seqs = clipped_pair(packs)
    assert window_is_clipped(make_batch(seqs, variant))
    assert_matches_oracle(criterion_8_model(vocab, variant), seqs)
