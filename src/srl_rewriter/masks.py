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


_Z, _C, _R = range(3)
_KIND_CODE = {RegionKind.TRIPLE: _Z, RegionKind.CONTEXT: _C, RegionKind.REWRITE: _R}


def build_mask(region_tags: Sequence[RegionTag], variant: MaskVariant) -> np.ndarray:
    """Boolean visibility matrix; M[i, j] means token i may attend token j."""
    n = len(region_tags)
    kinds = np.fromiter((_KIND_CODE[tag.kind] for tag in region_tags), dtype=np.int8, count=n)
    if variant is MaskVariant.NO_SRL and (kinds == _Z).any():
        raise RewriterError("VARIANT_MISMATCH", "no-srl variant with a non-empty triple region")
    row, col = kinds[:, None], kinds[None, :]
    pos = np.arange(n)
    # rewrite and context rows see triples and context; rewrite rows are causal
    mask = (row != _Z) & (col != _R)
    mask |= (row == _R) & (col == _R) & (pos[:, None] >= pos[None, :])
    # triple rows see context, and triples of their block per variant
    mask |= (row == _Z) & (col == _C)
    triples = (row == _Z) & (col == _Z)
    if variant is MaskVariant.TRIPLE_MASK:
        index = np.fromiter((tag.index for tag in region_tags), dtype=np.int64, count=n)
        triples &= index[:, None] == index[None, :]
    mask |= triples
    np.fill_diagonal(mask, True)
    return mask


def mask_to_additive(mask: np.ndarray) -> np.ndarray:
    """0 where visible, a large negative bias where blocked (added pre-softmax)."""
    return np.where(mask, 0.0, NEG_BIAS)
