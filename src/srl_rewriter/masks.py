"""Visibility matrices: future mask on the rewrite region, bidirectional or
per-triple block-diagonal attention over the linearized triple region.

Rules, with i the attending row and j the attended column:
  rewrite  -> triples/context: visible; rewrite -> rewrite: j <= i
  context  -> context/triples: visible; context -> rewrite: blocked
  triples  -> triples: all visible (bi) or same-triple only (triple-mask)
  triples  -> context: visible;         triples -> rewrite: blocked
The diagonal is always visible.  Matrices depend only on region tags and the
variant, never on token identity.

A batch pads its rows of tags to the longest: a padding row sees only
itself, and no row sees a padding column.
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


_Z, _C, _R, _PAD = range(4)
_KIND_CODE = {RegionKind.TRIPLE: _Z, RegionKind.CONTEXT: _C, RegionKind.REWRITE: _R}


def build_batch_mask(tag_rows: Sequence[Sequence[RegionTag]], variant: MaskVariant) -> np.ndarray:
    """Boolean visibility [B, L, L] of tag rows padded to the longest, L;
    M[b, i, j] means token i of row b may attend token j."""
    lengths = np.array([len(row) for row in tag_rows])
    L = int(lengths.max(initial=0))
    real = np.arange(L) < lengths[:, None]
    tags = [tag for row in tag_rows for tag in row]
    kinds = np.full(real.shape, _PAD, dtype=np.int8)
    kinds[real] = [_KIND_CODE[tag.kind] for tag in tags]
    if variant is MaskVariant.NO_SRL and (kinds == _Z).any():
        raise RewriterError("VARIANT_MISMATCH", "no-srl variant with a non-empty triple region")
    row, col = kinds[:, :, None], kinds[:, None, :]
    # real rows see triples and context; rewrite rows see rewrite rows up to their own
    mask = (row != _PAD) & (col <= _C)
    mask |= (row == _R) & (col == _R) & np.tri(L, dtype=bool)
    if variant is MaskVariant.TRIPLE_MASK:
        index = np.zeros(real.shape, dtype=np.int64)
        index[real] = [tag.index for tag in tags]
        # triple rows see only the tokens of their own triple
        mask &= (row != _Z) | (col != _Z) | (index[:, :, None] == index[:, None, :])
    mask[:, np.arange(L), np.arange(L)] = True
    return mask


def build_mask(region_tags: Sequence[RegionTag], variant: MaskVariant) -> np.ndarray:
    """Boolean visibility matrix; M[i, j] means token i may attend token j."""
    return build_batch_mask([region_tags], variant)[0]


def mask_to_additive(mask: np.ndarray) -> np.ndarray:
    """0 where visible, a large negative bias where blocked (added pre-softmax)."""
    return np.where(mask, 0.0, NEG_BIAS)
