"""Visibility matrices: future mask on the rewrite region, bidirectional or
per-triple block-diagonal attention over the linearized triple region.

Rules, with i the attending row and j the attended column:
  rewrite  -> triples/context: visible; rewrite -> rewrite: j <= i
  context  -> context/triples: visible; context -> rewrite: blocked
  triples  -> triples: all visible (bi) or same-triple only (triple-mask)
  triples  -> context: visible;         triples -> rewrite: blocked
The diagonal is always visible.  Matrices depend only on region tags and the
variant, never on token identity.
"""

from __future__ import annotations

from enum import Enum
from typing import Sequence

import numpy as np

from .core import RewriterError
from .packing import RegionKind, RegionTag

NEG_BIAS = -1e9  # finite stand-in for -inf; keeps every arithmetic mode NaN-free


class MaskVariant(Enum):
    NO_SRL = "no-srl"
    BI_MASK = "bi-mask"
    TRIPLE_MASK = "triple-mask"


def build_mask(region_tags: Sequence[RegionTag], variant: MaskVariant) -> np.ndarray:
    """Boolean visibility matrix; M[i, j] means token i may attend token j."""
    n = len(region_tags)
    kinds = np.array([tag.kind.value for tag in region_tags])
    is_z = kinds == RegionKind.TRIPLE.value
    is_c = kinds == RegionKind.CONTEXT.value
    is_r = kinds == RegionKind.REWRITE.value
    if variant is MaskVariant.NO_SRL and is_z.any():
        raise RewriterError("VARIANT_MISMATCH", "no-srl variant with a non-empty triple region")

    mask = np.zeros((n, n), dtype=bool)
    # rows from the rewrite: everything before, causal within the rewrite
    pos = np.arange(n)
    mask[np.ix_(is_r, is_z | is_c)] = True
    mask[np.ix_(is_r, is_r)] = pos[is_r][:, None] >= pos[is_r][None, :]
    # rows from the context: full view of context and triples
    mask[np.ix_(is_c, is_c | is_z)] = True
    # rows from the triples: context always, triple block per variant
    mask[np.ix_(is_z, is_c)] = True
    if variant is MaskVariant.TRIPLE_MASK:
        triple_idx = np.array([tag.index if tag.kind is RegionKind.TRIPLE else -1 for tag in region_tags])
        same = triple_idx[is_z][:, None] == triple_idx[is_z][None, :]
        mask[np.ix_(is_z, is_z)] = same
    else:
        mask[np.ix_(is_z, is_z)] = True
    np.fill_diagonal(mask, True)
    return mask


def mask_to_additive(mask: np.ndarray) -> np.ndarray:
    """0 where visible, a large negative bias where blocked (added pre-softmax)."""
    return np.where(mask, 0.0, NEG_BIAS)
