"""Visibility masks against the pairwise rule oracle."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import RegionKind, RegionTag, layout_pack, oracle_mask
from srl_rewriter.core import RewriterError
from srl_rewriter.masks import NEG_BIAS, MaskVariant, build_mask, mask_to_additive


def layout(n_triples, triple_lens, utt_lens, rewrite_len):
    """Region tag sequence shaped like a packed instance: [z][c][r]."""
    tags = []
    for t in range(n_triples):
        tags.extend(RegionTag(RegionKind.TRIPLE, t) for _ in range(triple_lens[t]))
    for u, length in enumerate(utt_lens):
        tags.extend(RegionTag(RegionKind.CONTEXT, u) for _ in range(length))
    tags.extend(RegionTag(RegionKind.REWRITE, 0) for _ in range(rewrite_len))
    return tuple(tags)


def random_layout(rng, with_triples=True):
    n_triples = rng.randint(1, 4) if with_triples else 0
    return layout(
        n_triples,
        [rng.randint(1, 4) for _ in range(n_triples)],
        [rng.randint(1, 4) for _ in range(rng.randint(1, 4))],
        rng.randint(1, 5),
    )


WORKED_LAYOUT = layout(2, [6, 6], [6, 8, 4], 9)  # two triples, three turns, rewrite


@pytest.mark.parametrize("variant", [MaskVariant.BI_MASK, MaskVariant.TRIPLE_MASK])
def test_worked_layout_matches_oracle(variant):
    tags = WORKED_LAYOUT
    assert build_mask(layout_pack(tags), variant).tolist() == oracle_mask(tags, variant)


def test_no_srl_matches_oracle_without_triple_region():
    tags = layout(0, [], [3, 4, 2], 5)
    want = oracle_mask(tags, MaskVariant.NO_SRL)
    assert build_mask(layout_pack(tags), MaskVariant.NO_SRL).tolist() == want


@pytest.mark.parametrize("variant", [MaskVariant.BI_MASK, MaskVariant.TRIPLE_MASK])
@pytest.mark.parametrize("seed", range(20))
def test_random_layouts_match_oracle(variant, seed):
    rng = random.Random(seed * 31 + (variant is MaskVariant.BI_MASK))
    tags = random_layout(rng)
    assert build_mask(layout_pack(tags), variant).tolist() == oracle_mask(tags, variant)


def test_no_srl_rejects_triple_region():
    tags = layout(1, [2], [2], 2)
    with pytest.raises(RewriterError) as err:
        build_mask(layout_pack(tags), MaskVariant.NO_SRL)
    assert err.value.code == "VARIANT_MISMATCH"


def test_triple_mask_is_subset_of_bi_mask():
    rng = random.Random(5)
    for _ in range(20):
        tags = random_layout(rng)
        bi = build_mask(layout_pack(tags), MaskVariant.BI_MASK)
        tri = build_mask(layout_pack(tags), MaskVariant.TRIPLE_MASK)
        assert np.all(bi | ~tri), "triple-mask may only remove visibility"
        # and they differ exactly on cross-triple pairs when >1 triple exists
        n_triples = len({t.index for t in tags if t.kind is RegionKind.TRIPLE})
        if n_triples > 1:
            assert (bi & ~tri).any()


def test_rewrite_prefix_stability():
    """Appending a rewrite token never changes visibility among earlier rows."""
    tags = layout(2, [3, 2], [3, 3], 4)
    longer = tags + (RegionTag(RegionKind.REWRITE, 0),)
    for variant in (MaskVariant.BI_MASK, MaskVariant.TRIPLE_MASK):
        small = build_mask(layout_pack(tags), variant)
        big = build_mask(layout_pack(longer), variant)
        assert np.array_equal(big[: len(tags), : len(tags)], small)


def test_causal_structure_inside_rewrite():
    tags = layout(1, [2], [2], 5)
    mask = build_mask(layout_pack(tags), MaskVariant.TRIPLE_MASK)
    r0 = 4  # first rewrite row
    for i in range(5):
        for j in range(5):
            assert mask[r0 + i, r0 + j] == (j <= i)


def test_source_rows_never_see_rewrite():
    tags = layout(2, [2, 2], [3], 4)
    mask = build_mask(layout_pack(tags), MaskVariant.BI_MASK)
    n_src = 4 + 3
    assert not mask[:n_src, n_src:].any()


def test_mask_to_additive_values():
    tags = layout(1, [2], [2], 2)
    mask = build_mask(layout_pack(tags), MaskVariant.TRIPLE_MASK)
    bias = mask_to_additive(mask)
    assert bias.shape == mask.shape and bias.dtype == np.float64
    assert (bias[mask] == 0.0).all()
    assert (bias[~mask] == NEG_BIAS).all()
    # the decode's float32 bias holds the same values: NEG_BIAS is exact in float32
    narrow = mask_to_additive(mask, np.float32)
    assert narrow.dtype == np.float32 and np.array_equal(narrow, bias)


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_layouts_match_oracle_property(seed):
    rng = random.Random(seed)
    tags = random_layout(rng)
    for variant in (MaskVariant.BI_MASK, MaskVariant.TRIPLE_MASK):
        assert build_mask(layout_pack(tags), variant).tolist() == oracle_mask(tags, variant)
