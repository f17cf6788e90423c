"""Desk-scale trainable transformer over packed sequences.

Post-norm encoder stack shared by all regions; the additive visibility bias is
applied inside every attention head, so one set of weights serves both the
bidirectional source side and the causal rewrite side.  Forward, loss, and
analytic gradients are hand-written in numpy, trained in float64 and decoded
in the weights' dtype: float32 for the weights a checkpoint stores and loads.
Shapes follow the [batch, length, d_model] convention throughout.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

import numpy as np

from .core import RESERVED_TOKENS, RewriterError, record_path
from .masks import NEG_BIAS, MaskVariant, build_batch_mask, mask_to_additive
from .packing import BOS_ID, EOS_ID, PackedSequence, SegmentType, Vocabulary

_GELU_C = float(np.sqrt(2.0 / np.pi))
_LN_EPS = 1e-5

CHECKPOINT_MAGIC = b"SRLW"
CHECKPOINT_VERSION = 1
_CHECKPOINT_DTYPE = "<f4"  # weights are stored as little-endian float32


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    d_model: int = 64
    n_heads: int = 4
    n_layers: int = 2
    d_ff: int = 128
    max_position: int = 64
    mask_variant: MaskVariant = MaskVariant.TRIPLE_MASK

    def __post_init__(self):
        for name in ("vocab_size", "d_model", "n_heads", "n_layers", "d_ff", "max_position"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 1:
                raise RewriterError(
                    "CONFIG_INVALID", f"{name} must be a positive integer, got {value!r}"
                )
        if self.d_model % self.n_heads != 0:
            raise RewriterError(
                "CONFIG_INVALID", f"d_model {self.d_model} not divisible by n_heads {self.n_heads}"
            )
        if self.vocab_size < len(RESERVED_TOKENS):
            raise RewriterError(
                "CONFIG_INVALID",
                f"vocab_size {self.vocab_size} must cover the {len(RESERVED_TOKENS)} reserved tokens",
            )

    def check_decode_budget(self, max_steps: int) -> None:
        """Rewrite position ids run up to max_steps - 1; the table must hold them."""
        if max_steps < 1:
            raise RewriterError("CONFIG_INVALID", f"max_decode_steps {max_steps} < 1")
        if max_steps > self.max_position:
            raise RewriterError(
                "TOO_LONG", f"{max_steps} decode steps exceed max_position {self.max_position}"
            )

    def to_dict(self) -> dict:
        out = asdict(self)
        out["mask_variant"] = self.mask_variant.value
        return out

    @staticmethod
    def from_dict(obj: dict) -> "ModelConfig":
        obj = dict(obj)
        obj.pop("dropout_rate", None)  # legacy key of older checkpoints; inference never used it
        if obj.pop("tie_embeddings", False):  # legacy key; only its false value is this model
            raise RewriterError("CHECKPOINT_MISMATCH", "tied embeddings are not supported")
        obj["mask_variant"] = MaskVariant(obj["mask_variant"])
        return ModelConfig(**obj)


def _parameter_shapes(config: ModelConfig) -> list[tuple[str, tuple[int, ...]]]:
    """Declared parameter order; the checkpoint format serializes exactly this."""
    d, f, v, p = config.d_model, config.d_ff, config.vocab_size, config.max_position
    shapes: list[tuple[str, tuple[int, ...]]] = [
        ("tok_emb", (v, d)),
        ("seg_emb", (3, d)),
        ("pos_emb", (p, d)),
    ]
    for i in range(config.n_layers):
        pre = f"layers.{i}."
        for name in ("Wq", "Wk", "Wv", "Wo"):
            shapes.append((pre + f"attn.{name}", (d, d)))
        for name in ("bq", "bk", "bv", "bo"):
            shapes.append((pre + f"attn.{name}", (d,)))
        shapes.append((pre + "ln1.g", (d,)))
        shapes.append((pre + "ln1.b", (d,)))
        shapes.append((pre + "ff.W1", (d, f)))
        shapes.append((pre + "ff.b1", (f,)))
        shapes.append((pre + "ff.W2", (f, d)))
        shapes.append((pre + "ff.b2", (d,)))
        shapes.append((pre + "ln2.g", (d,)))
        shapes.append((pre + "ln2.b", (d,)))
    shapes.append(("out.W", (d, v)))
    shapes.append(("out.b", (v,)))
    return shapes


def _init_parameter(name: str, shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    if name.endswith(".g"):
        return np.ones(shape)
    if name.endswith((".b", "bq", "bk", "bv", "bo", "b1", "b2")):
        return np.zeros(shape)
    fan_in = shape[-1] if name.endswith("_emb") else shape[0]
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


class RewriterModel:
    """Embedding tables plus transformer stack; its passes only read the weights."""

    def __init__(self, config: ModelConfig, seed: int = 0):
        self.config = config
        rng = np.random.default_rng(seed)
        self.params: dict[str, np.ndarray] = {
            name: _init_parameter(name, shape, rng) for name, shape in _parameter_shapes(config)
        }

    # -- bookkeeping --------------------------------------------------------

    def parameter_count(self) -> int:
        return sum(p.size for p in self.params.values())

    @classmethod
    def _from_params(cls, config: ModelConfig, params: dict[str, np.ndarray]) -> "RewriterModel":
        """A model that takes ``params`` as its weights."""
        model = cls.__new__(cls)
        model.config = config
        model.params = params
        return model

    def stored_copy(self) -> "RewriterModel":
        """A copy with the float32 weights a checkpoint of this model stores and loads."""
        params = {k: v.astype(np.float32) for k, v in self.params.items()}
        return RewriterModel._from_params(self.config, params)

    # -- forward ------------------------------------------------------------

    def embed_ids(self, ids: np.ndarray, segs: np.ndarray, poss: np.ndarray) -> np.ndarray:
        cfg = self.config
        if ids.max(initial=0) >= cfg.vocab_size or ids.min(initial=0) < 0:
            raise RewriterError("ID_OUT_OF_RANGE", "token id outside the embedding table")
        if poss.max(initial=0) >= cfg.max_position or poss.min(initial=0) < 0:
            raise RewriterError(
                "ID_OUT_OF_RANGE",
                f"position id {poss.max(initial=0)} outside max_position {cfg.max_position}",
            )
        p = self.params
        x = p["tok_emb"][ids]
        x += p["seg_emb"][segs]
        x += p["pos_emb"][poss]
        return x

    def forward_batch(self, batch: dict, rows: Optional[tuple] = None) -> tuple[np.ndarray, list]:
        """Logits [B, L, V] for a made batch and the cache ``_backward`` reads.

        ``rows``, an index over the batch and row axes that picks R distinct
        rows of every example, runs the last layer and the logits head on
        those rows only and returns logits [B, R, V].
        """
        ids, segs, poss, bias = batch["ids"], batch["segs"], batch["poss"], batch["bias"]
        if bias.shape[-1] != ids.shape[-1] or bias.shape[-2] != ids.shape[-1]:
            raise RewriterError("SHAPE_MISMATCH", "mask side does not match sequence length")
        x = self.embed_ids(ids, segs, poss)
        caches: list = []
        last = self.config.n_layers - 1
        for i in range(self.config.n_layers):
            x = self._layer(i, x, bias, rows=rows if i == last else None, caches=caches)
        return _affine(x, self.params["out.W"], self.params["out.b"]), [ids, segs, poss, caches]

    def _layer(
        self,
        i: int,
        x: np.ndarray,
        bias: np.ndarray,
        kv: Optional[tuple] = None,
        at: int = 0,
        rows: Optional[tuple] = None,
        caches: Optional[list] = None,
    ) -> np.ndarray:
        """One post-norm block over rows x [B, L, d]; returns its output [B, R, d].

        Keys and values come from every row of x; queries, attention, layer
        norms and FFN run on the query rows only: all of x when ``rows`` is
        None, else x[rows] [B, R, d], R distinct rows of every example.
        ``bias`` [B, L, Lk] holds one row per row of x.  With no query rows
        (R == 0) the block stops once it has written ``kv``.
        Without ``kv`` the rows attend each other (Lk == L).  With ``kv`` =
        (K, V), buffers [B, H, L_max, dh] whose first ``at`` columns hold the
        keys and values of earlier rows, the rows' own keys and values are
        written to columns [at, at + L) and attention spans [0, at + L).
        The training forward passes ``caches``, a list to which the block
        appends the activations the backward pass reads and does not rebuild:
        the GELU slope stands in for the GELU input and its ``tanh``, and the
        block input, the first layer norm's output and the attention context
        are left out.  Arrays are written in place only before they are
        cached.
        """
        p = self.params
        pre = f"layers.{i}."
        B, L, d = x.shape
        H = self.config.n_heads
        dh = d // H

        def heads(m: np.ndarray) -> np.ndarray:
            return m.reshape(B, m.shape[1], H, dh).transpose(0, 2, 1, 3)

        kh = heads(_affine(x, p[pre + "attn.Wk"], p[pre + "attn.bk"]))
        vh = heads(_affine(x, p[pre + "attn.Wv"], p[pre + "attn.bv"]))
        if kv is not None:
            K, V = kv
            K[:, :, at : at + L] = kh
            V[:, :, at : at + L] = vh
            kh, vh = K[:, :, : at + L], V[:, :, : at + L]
        xq = x
        if rows is not None:
            xq, bias = x[rows], bias[rows]
            if xq.shape[1] == 0:  # no query rows: the block only writes keys and values
                return xq
        qh = heads(_affine(xq, p[pre + "attn.Wq"], p[pre + "attn.bq"]))
        attn = qh @ kh.transpose(0, 1, 3, 2)  # the scores, turned into softmax in place
        attn *= float(1.0 / np.sqrt(dh))  # a Python float keeps float32 scores float32
        attn += bias[:, None, :, :]
        attn -= attn.max(axis=-1, keepdims=True)
        np.exp(attn, out=attn)
        attn /= attn.sum(axis=-1, keepdims=True)
        res1 = _affine(_context(attn, vh), p[pre + "attn.Wo"], p[pre + "attn.bo"])
        res1 += xq
        x1, ln1_cache = _layer_norm_forward(res1, p[pre + "ln1.g"], p[pre + "ln1.b"])
        del res1
        h_pre = _affine(x1, p[pre + "ff.W1"], p[pre + "ff.b1"])
        h_act, t = _gelu_forward(h_pre)
        slope = None if caches is None else _gelu_slope(h_pre, t)  # takes over h_pre and t
        del h_pre, t
        res2 = _affine(h_act, p[pre + "ff.W2"], p[pre + "ff.b2"])
        res2 += x1
        x2, ln2_cache = _layer_norm_forward(res2, p[pre + "ln2.g"], p[pre + "ln2.b"])
        if caches is not None:
            caches.append(dict(
                rows=rows, attn=attn, qh=qh, kh=kh, vh=vh, ln1=ln1_cache, h_act=h_act,
                slope=slope, ln2=ln2_cache,
            ))
        return x2

    def loss_and_grads(self, batch: dict, loss_scale: float = 1.0) -> tuple[float, int, dict]:
        """Summed NLL over target positions and its analytic gradients, scaled
        by ``loss_scale``.  Returns (loss, target count, gradients by parameter
        name in ``params`` order); the model is only read.

        The last layer and the logits head run only on the rows of the
        batch's ``window``: rows without a target get no loss, so no gradient
        flows from them.
        """
        target_mask, target_ids = batch["target_mask"], batch["target_ids"]
        n_targets = int(target_mask.sum())
        if n_targets == 0:
            raise RewriterError("NO_REFERENCE", "batch contains no loss targets")
        rows = np.arange(len(target_mask))[:, None], batch["window"]
        target_mask, target_ids = target_mask[rows], target_ids[rows]
        logits, cache = self.forward_batch(batch, rows=rows)
        logits -= logits.max(axis=-1, keepdims=True)
        dlogits = np.exp(logits)  # the softmax, then its loss gradient, in place
        norm = dlogits.sum(axis=-1, keepdims=True)
        dlogits /= norm
        bi, li = np.nonzero(target_mask)
        ti = target_ids[bi, li]
        loss = float(-(logits[bi, li, ti] - np.log(norm[bi, li, 0])).sum())

        dlogits *= target_mask[:, :, None]
        dlogits[bi, li, ti] -= 1.0
        dlogits *= loss_scale
        del logits, norm
        return loss, n_targets, self._backward(dlogits, cache)

    # -- backward -----------------------------------------------------------

    def _backward(self, dlogits: np.ndarray, cache: list) -> dict[str, np.ndarray]:
        """Gradients, in ``params`` order, from ``dlogits`` [B, R, V] of a cached forward.

        Consumes ``cache``: it is emptied on entry, and each activation is
        released as soon as its last reader has run, layers last to first.
        What the forward did not cache it rebuilds with the forward's own
        operations, so the gradients are those of a full cache, bit for bit:
        a block's input from the block below's second layer norm (the
        embedding for block 0), the first layer norm's output from its
        cache, and the attention context from the attention and the values.
        """
        cfg = self.config
        p, g = self.params, {}
        ids, segs, poss, layer_caches = cache
        cache.clear()
        H, dh = cfg.n_heads, cfg.d_model // cfg.n_heads
        scale = 1.0 / np.sqrt(dh)

        def block_output(i: int) -> np.ndarray:  # block i's output, while its cache is held
            return _layer_norm_output(layer_caches[i]["ln2"], p[f"layers.{i}.ln2.b"])

        g["out.W"], g["out.b"] = _affine_grads(block_output(cfg.n_layers - 1), dlogits)
        dx = _affine(dlogits, p["out.W"].T)

        for i in reversed(range(cfg.n_layers)):
            pre = f"layers.{i}."
            c = layer_caches.pop()
            B, R = dx.shape[:2]
            dres2, dg2, db2 = _layer_norm_backward(dx, c.pop("ln2"))
            del dx
            g[pre + "ln2.g"], g[pre + "ln2.b"] = dg2, db2
            g[pre + "ff.W2"], g[pre + "ff.b2"] = _affine_grads(c.pop("h_act"), dres2)
            dh_pre = _affine(dres2, p[pre + "ff.W2"].T)
            dh_pre *= c.pop("slope")
            ln1 = c.pop("ln1")
            x1 = _layer_norm_output(ln1, p[pre + "ln1.b"])
            g[pre + "ff.W1"], g[pre + "ff.b1"] = _affine_grads(x1, dh_pre)
            del x1
            dx1 = _affine(dh_pre, p[pre + "ff.W1"].T)
            dx1 += dres2
            del dres2, dh_pre
            dres1, dg1, db1 = _layer_norm_backward(dx1, ln1)
            del dx1, ln1
            g[pre + "ln1.g"], g[pre + "ln1.b"] = dg1, db1
            attn, vh = c.pop("attn"), c.pop("vh")
            g[pre + "attn.Wo"], g[pre + "attn.bo"] = _affine_grads(_context(attn, vh), dres1)
            dctx = _affine(dres1, p[pre + "attn.Wo"].T).reshape(B, R, H, dh).transpose(0, 2, 1, 3)
            dvh = attn.transpose(0, 1, 3, 2) @ dctx
            dscores = dctx @ vh.transpose(0, 1, 3, 2)  # dattn, then the scores' in place
            del dctx, vh
            dscores -= (dscores * attn).sum(axis=-1, keepdims=True)
            dscores *= attn
            del attn
            dscores *= scale
            dqh = dscores @ c.pop("kh")
            dkh = dscores.transpose(0, 1, 3, 2) @ c.pop("qh")
            del dscores
            dq, dk, dv = (
                m.transpose(0, 2, 1, 3).reshape(B, -1, cfg.d_model) for m in (dqh, dkh, dvh)
            )
            del dqh, dkh, dvh
            x_in = block_output(i - 1) if i else self.embed_ids(ids, segs, poss)
            rows = c.pop("rows")
            xq = x_in if rows is None else x_in[rows]
            for name, dmat, x_of in (("q", dq, xq), ("k", dk, x_in), ("v", dv, x_in)):
                g[pre + f"attn.W{name}"], g[pre + f"attn.b{name}"] = _affine_grads(x_of, dmat)
            del x_in, xq, dmat, x_of
            dx = _affine(dq, p[pre + "attn.Wq"].T)
            dx += dres1
            del dq, dres1
            if rows is not None:  # the query rows' gradient, back into all rows
                dx_all = np.zeros_like(dk)
                dx_all[rows] = dx
                dx = dx_all
                del dx_all
            dx += _affine(dk, p[pre + "attn.Wk"].T)
            del dk
            dx += _affine(dv, p[pre + "attn.Wv"].T)
            del dv
        for name, index in (("tok_emb", ids), ("seg_emb", segs), ("pos_emb", poss)):
            g[name] = np.zeros_like(p[name])
            _scatter_rows(g[name], index, dx)
        return {name: g[name] for name in p}  # clip_gradients sums the norms in this order


# Kernels.  Each writes in place only into arrays it allocated itself, and
# ``_gelu_slope`` also into the two its caller hands over; no other input, and
# nothing the forward caches for the backward pass, is written again.
# ``_backward`` consumes that cache: it drops each cached array after its last
# reader, so a training step never holds its whole forward cache to the end.


def _affine(x: np.ndarray, W: np.ndarray, b: Optional[np.ndarray] = None) -> np.ndarray:
    """x [..., n] @ W [n, m] (+ b), one 2-D product over the flattened leading axes."""
    out = x.reshape(-1, W.shape[0]) @ W
    if b is not None:
        out += b
    return out.reshape(*x.shape[:-1], W.shape[1])


def _affine_grads(x: np.ndarray, dout: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The weight and bias gradients (gW, gb) of ``_affine(x, W, b)``."""
    dout = dout.reshape(-1, dout.shape[-1])
    return x.reshape(-1, x.shape[-1]).T @ dout, dout.sum(axis=0)


def _scatter_rows(table: np.ndarray, index: np.ndarray, rows: np.ndarray) -> None:
    """``np.add.at(table, index, rows)``: rows [..., d] summed into the table
    rows their index names.  One stable sort groups equal indices, and
    ``np.add.reduceat`` sums each group in its original order."""
    index = index.ravel()
    order = np.argsort(index, kind="stable")
    index = index[order]
    starts = np.flatnonzero(np.concatenate(([True], index[1:] != index[:-1])))
    table[index[starts]] += np.add.reduceat(rows.reshape(index.size, -1)[order], starts)


def _layer_norm_forward(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray):
    d = x.shape[-1]
    xhat = x - x.sum(axis=-1, keepdims=True) / d
    sq = np.multiply(xhat, xhat)
    inv = 1.0 / np.sqrt(sq.sum(axis=-1, keepdims=True) / d + _LN_EPS)
    xhat *= inv
    cache = (xhat, inv, gamma)
    return _layer_norm_output(cache, beta, out=sq), cache


def _layer_norm_output(cache, beta: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """The layer norm's output from its cache, by the forward's own operations."""
    xhat, _, gamma = cache
    out = np.multiply(xhat, gamma, out=out)
    out += beta
    return out


def _layer_norm_backward(dout: np.ndarray, cache) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    xhat, inv, gamma = cache
    d = xhat.shape[-1]
    prod = dout * xhat
    dgamma = prod.reshape(-1, d).sum(axis=0)
    dbeta = dout.reshape(-1, d).sum(axis=0)
    dx = dout * gamma  # dxhat, then dx in place
    np.multiply(dx, xhat, out=prod)
    mean2 = prod.sum(axis=-1, keepdims=True) / d
    dx -= dx.sum(axis=-1, keepdims=True) / d
    dx -= np.multiply(xhat, mean2, out=prod)
    dx *= inv
    return dx, dgamma, dbeta


def _context(attn: np.ndarray, vh: np.ndarray) -> np.ndarray:
    """The attention context [B, R, d] of weights [B, H, R, Lk] over values [B, H, Lk, dh]."""
    B, H, R, _ = attn.shape
    return (attn @ vh).transpose(0, 2, 1, 3).reshape(B, R, H * vh.shape[3])


def _gelu_forward(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """GELU of x, and the ``tanh`` it took, which ``_gelu_slope`` reads."""
    t = x * x  # the tanh argument, then the tanh, in place
    t *= x
    t *= 0.044715
    t += x
    t *= _GELU_C
    np.tanh(t, out=t)
    out = t + 1.0
    out *= x
    out *= 0.5
    return out, t


def _gelu_slope(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The GELU derivative at x, from x and its forward ``tanh`` t.

    It is computed in the buffers of x and t, which the caller hands over,
    plus one of its own, and returned in x's.
    """
    tail = t * t
    np.subtract(1.0, tail, out=tail)
    tail *= x
    tail *= 0.5
    np.multiply(x, x, out=x)  # d tanh-argument / dx, then the whole derivative, in place
    x *= 3 * 0.044715
    x += 1.0
    x *= _GELU_C
    x *= tail
    t += 1.0
    t *= 0.5
    x += t
    return x


# -- batch assembly ----------------------------------------------------------


def make_batch(packed_seqs: Sequence[PackedSequence], variant: MaskVariant) -> dict:
    """Pad packed sequences into model-ready arrays under a mask variant, with
    next-token loss targets over each rewrite region.

    ``window`` [B, R] holds the columns of each example's loss rows, R the
    most targets any example has: R distinct in-range columns from the BOS
    column, or from L - R where that would run past the last column, so they
    cover every target.
    """
    batch = _padded_inputs(packed_seqs, variant, np.float64)
    ids = batch["ids"]
    L = ids.shape[1]
    cols = np.arange(L)
    lengths = np.array([len(s) for s in packed_seqs])
    # targets run from each rewrite's BOS column up to its last-but-one token
    bos = np.array([s.len_z + s.len_c for s in packed_seqs])
    target_mask = (cols >= bos[:, None]) & (cols < lengths[:, None] - 1)
    target_ids = np.zeros_like(ids)
    target_ids[:, :-1] = np.where(target_mask[:, :-1], ids[:, 1:], 0)
    R = int((lengths - 1 - bos).max(initial=0))
    batch["target_mask"], batch["target_ids"] = target_mask, target_ids
    batch["window"] = np.minimum(bos, L - R)[:, None] + np.arange(R)
    return batch


def _padded_inputs(packed_seqs: Sequence[PackedSequence], variant: MaskVariant, dtype) -> dict:
    """Token, segment and position ids [B, L] of packed sequences padded to the
    longest, L, and their additive attention bias [B, L, L] in ``dtype``.

    The bias follows the padding rule of ``build_batch_mask``, so batched and
    single-sequence execution agree exactly.
    """
    lengths = np.array([len(s) for s in packed_seqs])
    real = np.arange(lengths.max()) < lengths[:, None]

    def padded(field: str) -> np.ndarray:
        out = np.zeros(real.shape, dtype=np.int64)
        out[real] = np.concatenate([getattr(s, field) for s in packed_seqs])
        return out

    return {
        "ids": padded("token_ids"),
        "segs": padded("segment_ids"),
        "poss": padded("position_ids"),
        "bias": mask_to_additive(build_batch_mask(packed_seqs, variant), dtype),
    }


# Prefixes decoded together against one prefix cache.  Wider batches take
# fewer step passes; the prefix pass runs in slices, so its working set does
# not grow with the batch, but the key and value buffers do.  Float32 buffers
# hold half the bytes of float64 ones, so 64 prefixes cost about what 32 did
# in float64.
_DECODE_BATCH = 64
# Prefixes per prefix pass.  The pass keeps every layer's activations for all
# its rows alive at once, so a wide decode batch runs it in slices of this
# many prefixes; the keys and values, which the steps need, are batch-wide.
# Float32 activations let a slice hold 8 prefixes in what 4 took in float64.
_PREFIX_SLICE = 8
# Rewrite columns of key and value room a prefix cache starts with.  A step
# that finds the room full doubles it, up to the decode budget, so the
# buffers follow the steps a batch takes rather than the budget.
_KV_ROOM = 16


class PrefixCache:
    """Keys and values of a padded batch of z+c prefixes at every layer, with
    room for up to ``max_steps`` rewrite rows per example.

    Triple and context rows never attend rewrite rows under any mask variant,
    and rewrite rows see every triple and context column, so the prefix's keys
    and values stay fixed for the whole decode.  Each ``step`` then runs one
    query row per example through the stack.
    """

    def __init__(self, model: RewriterModel, prefixes: Sequence[PackedSequence], max_steps: int):
        if any(packed.len_r != 0 for packed in prefixes):
            raise RewriterError("SHAPE_MISMATCH", "decode prefix already has a rewrite region")
        cfg = model.config
        self.model = model
        dtype = model.params["out.W"].dtype  # the decode runs in the weights' dtype
        batch = _padded_inputs(prefixes, cfg.mask_variant, dtype)
        B, L = batch["ids"].shape
        shape = (B, cfg.n_heads, L + min(max_steps, _KV_ROOM), cfg.d_model // cfg.n_heads)
        self.kv = [(np.empty(shape, dtype), np.empty(shape, dtype)) for _ in range(cfg.n_layers)]
        # a rewrite row sees its own prefix and every rewrite row up to itself
        cols = np.arange(L + max_steps)
        lengths = np.array([len(packed) for packed in prefixes])[:, None, None]
        self.bias = np.where((cols >= lengths) & (cols < L), NEG_BIAS, 0.0).astype(dtype)
        self.prefix_len = L
        self.max_steps = max_steps
        self.steps = 0
        # no step reads the prefix's last-layer output: that layer only writes K and V
        for lo in range(0, B, _PREFIX_SLICE):
            s = slice(lo, lo + _PREFIX_SLICE)
            x = model.embed_ids(batch["ids"][s], batch["segs"][s], batch["poss"][s])
            for i, (K, V) in enumerate(self.kv):
                rows = np.s_[:, :0] if i == cfg.n_layers - 1 else None
                x = model._layer(i, x, batch["bias"][s], (K[s], V[s]), rows=rows)

    def step(self, token_ids: np.ndarray) -> np.ndarray:
        """Logits [B, V] of the next rewrite row, which holds ``token_ids``."""
        model, p = self.model, self.model.params
        t = self.steps
        # embed_ids' sums without its range checks: an argmax or BOS id, and
        # a position that check_decode_budget bounds
        x = p["tok_emb"][token_ids.reshape(-1, 1)]
        x += p["seg_emb"][SegmentType.E_A]
        x += p["pos_emb"][t]
        at = self.prefix_len + t
        if at == self.kv[0][0].shape[2]:  # the room is full: double it, up to the budget
            cols = self.prefix_len + min(2 * t, self.max_steps)
            for i, kv in enumerate(self.kv):  # one layer's old buffers live at a time
                self.kv[i] = tuple(_widened(m, cols) for m in kv)
        for i, kv in enumerate(self.kv):
            x = model._layer(i, x, self.bias[:, :, : at + 1], kv, at)
        self.steps += 1
        return _affine(x[:, 0], p["out.W"], p["out.b"])


def _widened(buf: np.ndarray, cols: int) -> np.ndarray:
    """A copy of K/V buffer ``buf`` [B, H, n, dh] with ``cols`` columns, in its dtype."""
    out = np.empty((*buf.shape[:2], cols, buf.shape[3]), buf.dtype)
    out[:, :, : buf.shape[2]] = buf
    return out


def decode_corpus(
    model: RewriterModel, packs: Sequence[PackedSequence], max_steps: int, vocab: Vocabulary
) -> list[list[str]]:
    """Greedy argmax hypotheses of z+c prefixes, as tokens in input order.

    The packs are sorted stably by prefix length, so a batch pads its
    prefixes little, and decoded in batches of ``_DECODE_BATCH``, each
    against one ``PrefixCache``.  Each hypothesis stops at EOS, which is never
    emitted, or after ``max_steps`` tokens; ties break toward the lowest token
    id.  Rows that have stopped ride along until their whole batch has.
    """
    model.config.check_decode_budget(max_steps)
    order = sorted(range(len(packs)), key=lambda i: len(packs[i]))
    emitted: list[list[int]] = [[] for _ in packs]
    for lo in range(0, len(order), _DECODE_BATCH):
        chunk = order[lo : lo + _DECODE_BATCH]
        cache = PrefixCache(model, [packs[i] for i in chunk], max_steps)
        live = np.ones(len(chunk), dtype=bool)
        next_ids = np.full(len(chunk), BOS_ID)
        for _ in range(max_steps):
            next_ids = np.argmax(cache.step(next_ids), axis=-1)
            live &= next_ids != EOS_ID
            for b in np.flatnonzero(live):
                emitted[chunk[b]].append(int(next_ids[b]))
            if not live.any():
                break
        del cache  # its K/V buffers go before the next batch's prefix pass starts
    return [vocab.decode(ids) for ids in emitted]


# -- checkpointing -----------------------------------------------------------


def save_checkpoint(model: RewriterModel, path: str) -> None:
    """Self-describing header plus flat little-endian float32 arrays."""
    header = {
        "config": model.config.to_dict(),
        "params": [[name, list(shape)] for name, shape in _parameter_shapes(model.config)],
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    record_path(path, written=True)
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(CHECKPOINT_VERSION.to_bytes(4, "little"))
        fh.write(len(blob).to_bytes(8, "little"))
        fh.write(blob)
        for name, _ in _parameter_shapes(model.config):
            fh.write(np.ascontiguousarray(model.params[name], dtype=_CHECKPOINT_DTYPE).tobytes())


def load_checkpoint(path: str) -> RewriterModel:
    record_path(path)
    with open(path, "rb") as fh:
        if fh.read(4) != CHECKPOINT_MAGIC:
            raise RewriterError("CHECKPOINT_MISMATCH", f"{path} is not a checkpoint")
        version = int.from_bytes(fh.read(4), "little")
        if version != CHECKPOINT_VERSION:
            raise RewriterError("CHECKPOINT_MISMATCH", f"unsupported checkpoint version {version}")
        try:
            header = json.loads(fh.read(int.from_bytes(fh.read(8), "little")))
            config = ModelConfig.from_dict(header["config"])
            declared = [(name, tuple(shape)) for name, shape in header["params"]]
        except (ValueError, KeyError, TypeError, RewriterError) as exc:
            raise RewriterError("CHECKPOINT_MISMATCH", f"{path}: bad header: {exc!r}") from exc
        expected = _parameter_shapes(config)
        if declared != expected:
            raise RewriterError("CHECKPOINT_MISMATCH", "parameter table does not match config")
        # the arrays must fill the rest of the file exactly; checked before the
        # model, whose size the header sets, is allocated
        counts = [int(np.prod(shape)) for _, shape in expected]
        size = os.fstat(fh.fileno()).st_size - fh.tell()
        if size != 4 * sum(counts):
            raise RewriterError(
                "CHECKPOINT_MISMATCH",
                f"{path}: {size} bytes of weights where the header declares {4 * sum(counts)}",
            )
        params = {
            name: np.frombuffer(fh.read(4 * count), dtype=_CHECKPOINT_DTYPE)
            .astype(np.float32).reshape(shape)
            for (name, shape), count in zip(expected, counts)
        }
    return RewriterModel._from_params(config, params)
