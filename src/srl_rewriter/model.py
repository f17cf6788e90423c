"""Desk-scale trainable transformer over packed sequences.

Post-norm encoder stack shared by all regions; the additive visibility bias is
applied inside every attention head, so one set of weights serves both the
bidirectional source side and the causal rewrite side.  Forward, loss, and
analytic gradients are hand-written over float64 numpy; shapes follow the
[batch, length, d_model] convention throughout.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

import numpy as np

from .core import RewriterError, record_path
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
    tie_embeddings: bool = False

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
        if self.vocab_size < 4:
            raise RewriterError("CONFIG_INVALID", "vocab_size must cover the reserved tokens")

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
    if not config.tie_embeddings:
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

    def copy(self) -> "RewriterModel":
        params = {k: v.copy() for k, v in self.params.items()}
        return RewriterModel._from_params(self.config, params)

    def stored_copy(self) -> "RewriterModel":
        """A copy with the weights a checkpoint of this model stores and loads."""
        clone = self.copy()
        for v in clone.params.values():
            v[...] = v.astype(_CHECKPOINT_DTYPE)
        return clone

    def _out_weight(self) -> np.ndarray:
        return self.params["tok_emb"].T if self.config.tie_embeddings else self.params["out.W"]

    # -- forward ------------------------------------------------------------

    def embed_ids(self, ids: np.ndarray, segs: np.ndarray, poss: np.ndarray) -> np.ndarray:
        cfg = self.config
        if ids.max(initial=0) >= cfg.vocab_size or ids.min(initial=0) < 0:
            raise RewriterError("ID_OUT_OF_RANGE", "token id outside the embedding table")
        if segs.max(initial=0) >= 3 or segs.min(initial=0) < 0:
            raise RewriterError("ID_OUT_OF_RANGE", "segment id outside the 3-row table")
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

    def forward_batch(
        self, batch: dict, need_cache: bool = False, rows: Optional[tuple] = None
    ) -> tuple[np.ndarray, Optional[list]]:
        """Logits [B, L, V] for a made batch; cache retained only when asked.

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
            x, cache = self._layer(i, x, bias, rows=rows if i == last else None)
            if need_cache:
                caches.append(cache)
        logits = _affine(x, self._out_weight(), self.params["out.b"])
        if need_cache:
            return logits, [ids, segs, poss, caches, x]
        return logits, None

    def _layer(
        self,
        i: int,
        x: np.ndarray,
        bias: np.ndarray,
        kv: Optional[tuple] = None,
        at: int = 0,
        rows: Optional[tuple] = None,
    ) -> tuple[np.ndarray, dict]:
        """One post-norm block over rows x [B, L, d].

        Keys and values come from every row of x; queries, attention, layer
        norms and FFN run on the query rows only: all of x when ``rows`` is
        None, else x[rows] [B, R, d], R distinct rows of every example.
        ``bias`` [B, L, Lk] holds one row per row of x.
        Without ``kv`` the rows attend each other (Lk == L).  With ``kv`` =
        (K, V), buffers [B, H, L_max, dh] whose first ``at`` columns hold the
        keys and values of earlier rows, the rows' own keys and values are
        written to columns [at, at + L) and attention spans [0, at + L).
        Returns the block output [B, R, d] and the activations the backward
        pass reads.  Arrays are written in place only before they are cached.
        """
        p = self.params
        pre = f"layers.{i}."
        B, L, d = x.shape
        H = self.config.n_heads
        dh = d // H

        def heads(m: np.ndarray) -> np.ndarray:
            return m.reshape(B, m.shape[1], H, dh).transpose(0, 2, 1, 3)

        xq = x
        if rows is not None:
            xq, bias = x[rows], bias[rows]
        qh = heads(_affine(xq, p[pre + "attn.Wq"], p[pre + "attn.bq"]))
        kh = heads(_affine(x, p[pre + "attn.Wk"], p[pre + "attn.bk"]))
        vh = heads(_affine(x, p[pre + "attn.Wv"], p[pre + "attn.bv"]))
        if kv is not None:
            K, V = kv
            K[:, :, at : at + L] = kh
            V[:, :, at : at + L] = vh
            kh, vh = K[:, :, : at + L], V[:, :, : at + L]
        attn = qh @ kh.transpose(0, 1, 3, 2)  # the scores, turned into softmax in place
        attn *= 1.0 / np.sqrt(dh)
        attn += bias[:, None, :, :]
        attn -= attn.max(axis=-1, keepdims=True)
        np.exp(attn, out=attn)
        attn /= attn.sum(axis=-1, keepdims=True)
        ctx = (attn @ vh).transpose(0, 2, 1, 3).reshape(B, xq.shape[1], d)
        res1 = _affine(ctx, p[pre + "attn.Wo"], p[pre + "attn.bo"])
        res1 += xq
        x1, ln1_cache = _layer_norm_forward(res1, p[pre + "ln1.g"], p[pre + "ln1.b"])
        h_act, gelu_cache = _gelu_forward(_affine(x1, p[pre + "ff.W1"], p[pre + "ff.b1"]))
        res2 = _affine(h_act, p[pre + "ff.W2"], p[pre + "ff.b2"])
        res2 += x1
        x2, ln2_cache = _layer_norm_forward(res2, p[pre + "ln2.g"], p[pre + "ln2.b"])
        cache = dict(
            x=x, xq=xq, rows=rows, attn=attn, qh=qh, kh=kh, vh=vh, ctx=ctx, ln1=ln1_cache,
            x1=x1, h_act=h_act, gelu=gelu_cache, ln2=ln2_cache,
        )
        return x2, cache

    def loss_and_grads(self, batch: dict, loss_scale: float = 1.0) -> tuple[float, int, dict]:
        """Summed NLL over target positions and its analytic gradients, scaled
        by ``loss_scale``.  Returns (loss, target count, gradients by parameter
        name in ``params`` order); the model is only read.

        The last layer and the logits head run only on a window of R rows per
        example, R the widest target span of the batch: rows without a target
        get no loss, so no gradient flows from them.
        """
        target_mask, target_ids = batch["target_mask"], batch["target_ids"]
        n_targets = int(target_mask.sum())
        if n_targets == 0:
            raise RewriterError("NO_REFERENCE", "batch contains no loss targets")
        rows = _target_windows(target_mask)
        target_mask, target_ids = target_mask[rows], target_ids[rows]
        logits, cache = self.forward_batch(batch, need_cache=True, rows=rows)
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
        """
        cfg = self.config
        p, g = self.params, {}
        ids, segs, poss, layer_caches, x_final = cache
        cache.clear()
        H, dh = cfg.n_heads, cfg.d_model // cfg.n_heads
        scale = 1.0 / np.sqrt(dh)

        out_grad, g["out.b"] = _affine_grads(x_final, dlogits)
        if cfg.tie_embeddings:  # the head's share first; the embedding scatter adds to it
            g["tok_emb"] = np.ascontiguousarray(out_grad.T)
        else:
            g["out.W"] = out_grad
        dx = _affine(dlogits, self._out_weight().T)
        del out_grad, x_final

        for i in reversed(range(cfg.n_layers)):
            pre = f"layers.{i}."
            c = layer_caches.pop()
            B, R = dx.shape[:2]
            dres2, dg2, db2 = _layer_norm_backward(dx, c.pop("ln2"))
            del dx
            g[pre + "ln2.g"], g[pre + "ln2.b"] = dg2, db2
            g[pre + "ff.W2"], g[pre + "ff.b2"] = _affine_grads(c.pop("h_act"), dres2)
            dh_pre = _gelu_backward(_affine(dres2, p[pre + "ff.W2"].T), c.pop("gelu"))
            g[pre + "ff.W1"], g[pre + "ff.b1"] = _affine_grads(c.pop("x1"), dh_pre)
            dx1 = _affine(dh_pre, p[pre + "ff.W1"].T)
            dx1 += dres2
            del dres2, dh_pre
            dres1, dg1, db1 = _layer_norm_backward(dx1, c.pop("ln1"))
            del dx1
            g[pre + "ln1.g"], g[pre + "ln1.b"] = dg1, db1
            g[pre + "attn.Wo"], g[pre + "attn.bo"] = _affine_grads(c.pop("ctx"), dres1)
            dctx = _affine(dres1, p[pre + "attn.Wo"].T).reshape(B, R, H, dh).transpose(0, 2, 1, 3)
            attn = c.pop("attn")
            dvh = attn.transpose(0, 1, 3, 2) @ dctx
            dscores = dctx @ c.pop("vh").transpose(0, 1, 3, 2)  # dattn, then the scores' in place
            del dctx
            dscores -= (dscores * attn).sum(axis=-1, keepdims=True)
            dscores *= attn
            del attn
            dscores *= scale
            dqh = dscores @ c.pop("kh")
            dkh = dscores.transpose(0, 1, 3, 2) @ c.pop("qh")
            del dscores
            x_in, xq, rows = c.pop("x"), c.pop("xq"), c.pop("rows")
            dq = dqh.transpose(0, 2, 1, 3).reshape(B, R, cfg.d_model)
            dk = dkh.transpose(0, 2, 1, 3).reshape(x_in.shape)
            dv = dvh.transpose(0, 2, 1, 3).reshape(x_in.shape)
            del dqh, dkh, dvh
            for name, dmat, x_of in (("q", dq, xq), ("k", dk, x_in), ("v", dv, x_in)):
                g[pre + f"attn.W{name}"], g[pre + f"attn.b{name}"] = _affine_grads(x_of, dmat)
            dx = _affine(dq, p[pre + "attn.Wq"].T)
            dx += dres1
            if rows is not None:  # the query rows' gradient, back into all rows
                dx_all = np.zeros_like(x_in)
                dx_all[rows] = dx
                dx = dx_all
                del dx_all
            dx += _affine(dk, p[pre + "attn.Wk"].T)
            dx += _affine(dv, p[pre + "attn.Wv"].T)
            del dres1, x_in, xq, dq, dk, dv
        for name, index in (("tok_emb", ids), ("seg_emb", segs), ("pos_emb", poss)):
            _scatter_rows(g.setdefault(name, np.zeros_like(p[name])), index, dx)
        return {name: g[name] for name in p}  # clip_gradients sums the norms in this order


def _target_windows(target_mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index of one window of R rows per example that covers its targets.

    R is the widest target span in the batch.  A window starts at the
    example's first target, or earlier where it would run past the last row,
    so its R rows are distinct and in range.
    """
    B, L = target_mask.shape
    first = np.argmax(target_mask, axis=1)
    last = L - 1 - np.argmax(target_mask[:, ::-1], axis=1)
    span = np.where(target_mask.any(axis=1), last - first + 1, 0)
    R = int(span.max())
    return np.arange(B)[:, None], np.minimum(first, L - R)[:, None] + np.arange(R)


# Kernels.  Each writes in place only into arrays it allocated itself; its
# inputs and whatever it caches for the backward pass are never written again.
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
    out = np.multiply(xhat, xhat)
    inv = 1.0 / np.sqrt(out.sum(axis=-1, keepdims=True) / d + _LN_EPS)
    xhat *= inv
    np.multiply(xhat, gamma, out=out)
    out += beta
    return out, (xhat, inv, gamma)


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


def _gelu_forward(x: np.ndarray):
    t = x * x  # the tanh argument, then the tanh, in place
    t *= x
    t *= 0.044715
    t += x
    t *= _GELU_C
    np.tanh(t, out=t)
    out = t + 1.0
    out *= x
    out *= 0.5
    return out, (x, t)


def _gelu_backward(dout: np.ndarray, cache) -> np.ndarray:
    x, t = cache
    dx = x * x  # d tanh-argument / dx, then the whole derivative, in place
    dx *= 3 * 0.044715
    dx += 1.0
    dx *= _GELU_C
    tail = t * t
    np.subtract(1.0, tail, out=tail)
    tail *= x
    tail *= 0.5
    dx *= tail
    np.add(t, 1.0, out=tail)
    tail *= 0.5
    dx += tail
    dx *= dout
    return dx


# -- batch assembly ----------------------------------------------------------


def make_batch(packed_seqs: Sequence[PackedSequence], variant: MaskVariant) -> dict:
    """Pad packed sequences into model-ready arrays under a mask variant, with
    next-token loss targets over each rewrite region.

    The bias follows the padding rule of ``build_batch_mask``, so batched and
    single-sequence execution agree exactly.
    """
    lengths = np.array([len(s) for s in packed_seqs])
    cols = np.arange(lengths.max())
    real = cols < lengths[:, None]

    def padded(field: str) -> np.ndarray:
        out = np.zeros(real.shape, dtype=np.int64)
        out[real] = np.concatenate([getattr(s, field) for s in packed_seqs])
        return out

    ids = padded("token_ids")
    # targets run from each rewrite's BOS column up to its last-but-one token
    bos = np.array([s.len_z + s.len_c for s in packed_seqs])
    target_mask = (cols >= bos[:, None]) & (cols < lengths[:, None] - 1)
    target_ids = np.zeros_like(ids)
    target_ids[:, :-1] = np.where(target_mask[:, :-1], ids[:, 1:], 0)
    return {
        "ids": ids,
        "segs": padded("segment_ids"),
        "poss": padded("position_ids"),
        "bias": mask_to_additive(build_batch_mask(packed_seqs, variant)),
        "target_mask": target_mask,
        "target_ids": target_ids,
    }


# Prefixes decoded together against one prefix cache.  Wider batches take
# fewer step calls; the prefix pass runs in slices, so its working set does
# not grow with the batch, but the key and value buffers do.
_DECODE_BATCH = 16
# Prefixes per prefix pass.  The pass keeps every layer's activations for all
# its rows alive at once, so a wide decode batch runs it in slices of this
# many prefixes; the keys and values, which the steps need, are batch-wide.
_PREFIX_SLICE = 4


class PrefixCache:
    """Keys and values of a padded batch of z+c prefixes at every layer, with
    room for ``max_steps`` rewrite rows per example.

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
        batch = make_batch(prefixes, cfg.mask_variant)
        B, L = batch["ids"].shape
        shape = (B, cfg.n_heads, L + max_steps, cfg.d_model // cfg.n_heads)
        self.kv = [(np.empty(shape), np.empty(shape)) for _ in range(cfg.n_layers)]
        # a rewrite row sees its own prefix and every rewrite row up to itself
        cols = np.arange(L + max_steps)
        lengths = np.array([len(packed) for packed in prefixes])[:, None, None]
        self.bias = np.where((cols >= lengths) & (cols < L), NEG_BIAS, 0.0)
        self.prefix_len = L
        self.steps = 0
        # no step reads the prefix's last-layer output: that layer only writes K and V
        for lo in range(0, B, _PREFIX_SLICE):
            s = slice(lo, lo + _PREFIX_SLICE)
            x = model.embed_ids(batch["ids"][s], batch["segs"][s], batch["poss"][s])
            for i, (K, V) in enumerate(self.kv):
                rows = np.s_[:, :0] if i == cfg.n_layers - 1 else None
                x = model._layer(i, x, batch["bias"][s], (K[s], V[s]), rows=rows)[0]

    def step(self, token_ids: np.ndarray) -> np.ndarray:
        """Logits [B, V] of the next rewrite row, which holds ``token_ids``."""
        model = self.model
        t = self.steps
        ids = token_ids.reshape(-1, 1)
        x = model.embed_ids(ids, np.full_like(ids, SegmentType.E_A), np.full_like(ids, t))
        at = self.prefix_len + t
        for i, kv in enumerate(self.kv):
            x = model._layer(i, x, self.bias[:, :, : at + 1], kv, at)[0]
        self.steps += 1
        return _affine(x[:, 0], model._out_weight(), model.params["out.b"])


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
            .astype(np.float64).reshape(shape)
            for (name, shape), count in zip(expected, counts)
        }
    return RewriterModel._from_params(config, params)
