"""Visibility matrices: future mask on the rewrite region, bidirectional or
per-triple block-diagonal attention over the linearized triple region.

Rules, with i the attending row and j the attended column:
  rewrite  -> triples/context: visible; rewrite -> rewrite: j <= i
  context  -> context/triples: visible; context -> rewrite: blocked
  triples  -> triples: all visible (bi) or same-triple only (triple-mask)
  triples  -> context: visible;         triples -> rewrite: blocked
The diagonal is always visible.  Matrices depend only on each pack's region
lengths, its triple indices and the variant, never on token identity.

A batch pads its packs to the longest: a padding row sees only itself, and
no row sees a padding column.
"""

from __future__ import annotations

from enum import Enum
from typing import Sequence

import numpy as np

from .core import RewriterError
from .packing import PackedSequence

NEG_BIAS = -1e9  # finite stand-in for -inf; keeps every arithmetic mode NaN-free


class MaskVariant(Enum):
    NO_SRL = "no-srl"
    BI_MASK = "bi-mask"
    TRIPLE_MASK = "triple-mask"


_Z, _C, _R, _PAD = range(4)


def build_batch_mask(packs: Sequence[PackedSequence], variant: MaskVariant) -> np.ndarray:
    """Boolean visibility [B, L, L] of packs padded to the longest, L;
    M[b, i, j] means token i of pack b may attend token j."""
    if variant is MaskVariant.NO_SRL and any(p.len_z for p in packs):
        raise RewriterError("VARIANT_MISMATCH", "no-srl variant with a non-empty triple region")
    ends = np.array([(p.len_z, p.len_z + p.len_c, len(p)) for p in packs])
    L = int(ends[:, 2].max())
    # a column's region is the number of region ends at or before it
    kinds = (np.arange(L) >= ends[:, :, None]).sum(axis=1)
    row, col = kinds[:, :, None], kinds[:, None, :]
    # real rows see triples and context; rewrite rows see rewrite rows up to their own
    mask = (row != _PAD) & (col <= _C)
    mask |= (row == _R) & (col == _R) & np.tri(L, dtype=bool)
    if variant is MaskVariant.TRIPLE_MASK:
        index = np.zeros(kinds.shape, dtype=np.int64)
        index[kinds != _PAD] = [i for p in packs for i in p.region_index]
        # triple rows see only the tokens of their own triple
        mask &= (row != _Z) | (col != _Z) | (index[:, :, None] == index[:, None, :])
    mask[:, np.arange(L), np.arange(L)] = True
    return mask


def build_mask(pack: PackedSequence, variant: MaskVariant) -> np.ndarray:
    """Boolean visibility matrix; M[i, j] means token i may attend token j."""
    return build_batch_mask([pack], variant)[0]


def mask_to_additive(mask: np.ndarray, dtype=np.float64) -> np.ndarray:
    """0 where visible, a large negative bias where blocked (added pre-softmax),
    in ``dtype``; NEG_BIAS is exact in float32 too."""
    visible, blocked = np.array((0.0, NEG_BIAS), dtype)
    return np.where(mask, visible, blocked)
