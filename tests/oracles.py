"""Independent reference implementations used to cross-check the library.

Everything here is written the slow, obvious way on purpose: list scans
instead of Counters, exhaustive enumeration instead of DP, pairwise rule
checks instead of vectorized construction.  Tests compare library outputs
against these, so the two code paths must never share logic.
"""

import math
from dataclasses import dataclass
from enum import Enum
from itertools import combinations

import numpy as np

from srl_rewriter.core import BOS_TOKEN, EOS_TOKEN, RewriterError
from srl_rewriter.masks import MaskVariant
from srl_rewriter.model import make_batch
from srl_rewriter.packing import (
    BOS_ID,
    PAD_ID,
    PackedSequence,
    SegmentType,
    linearize_triples,
)


class RegionKind(Enum):
    TRIPLE = "triple"
    CONTEXT = "context"
    REWRITE = "rewrite"


@dataclass(frozen=True)
class RegionTag:
    """One token's region, as the pairwise rule reads it."""

    kind: RegionKind
    index: int  # triple ordinal / utterance turn / 0 for the rewrite


def grams(seq, k):
    return [tuple(seq[i : i + k]) for i in range(len(seq) - k + 1)]


def oracle_bleu(hyps, refs, n, smooth=False):
    log_precision = 0.0
    for k in range(1, n + 1):
        matched = 0
        total = 0
        for hyp, ref in zip(hyps, refs):
            hyp_grams = grams(hyp, k)
            ref_grams = grams(ref, k)
            for gram in set(hyp_grams):
                matched += min(hyp_grams.count(gram), ref_grams.count(gram))
            total += len(hyp_grams)
        if smooth:
            matched += 1
            total += 1
        if matched == 0 or total == 0:
            return 0.0
        log_precision += math.log(matched / total) / n
    hyp_len = sum(len(h) for h in hyps)
    ref_len = sum(len(r) for r in refs)
    if hyp_len == 0:
        return 0.0
    brevity = min(0.0, 1.0 - ref_len / hyp_len)
    return math.exp(log_precision + brevity)


def oracle_rouge_n(hyps, refs, n):
    total = 0.0
    for hyp, ref in zip(hyps, refs):
        hyp_grams = grams(hyp, n)
        ref_grams = grams(ref, n)
        overlap = 0
        for gram in set(hyp_grams):
            overlap += min(hyp_grams.count(gram), ref_grams.count(gram))
        if not hyp_grams and not ref_grams:
            total += 1.0
        elif overlap == 0:
            total += 0.0
        else:
            p = overlap / len(hyp_grams)
            r = overlap / len(ref_grams)
            total += 2 * p * r / (p + r)
    return total / len(hyps)


def is_subsequence(needle, haystack):
    it = iter(haystack)
    return all(tok in it for tok in needle)


def oracle_lcs(a, b):
    """Longest common subsequence by exhaustive enumeration; lengths <= ~10."""
    best = 0
    for size in range(min(len(a), len(b)), 0, -1):
        for picked in combinations(a, size):
            if is_subsequence(picked, b):
                best = size
                break
        if best:
            break
    return best


def oracle_rouge_l(hyps, refs):
    total = 0.0
    for hyp, ref in zip(hyps, refs):
        lcs = oracle_lcs(hyp, ref)
        if not hyp and not ref:
            total += 1.0
        elif lcs == 0:
            total += 0.0
        else:
            p = lcs / len(hyp)
            r = lcs / len(ref)
            total += 2 * p * r / (p + r)
    return total / len(hyps)


def oracle_visible(tags, i, j, variant):
    """Pairwise visibility rule, written as a direct transcription.

    Query i attends key j when:
      rewrite -> rewrite: j is not later in the sequence (causal);
      rewrite -> triple/context: always;
      context -> context or triple: always; context -> rewrite: never;
      triple -> context: always; triple -> rewrite: never;
      triple -> triple: always under the all-visible variant, same block
        under the block-diagonal variant;
      and the diagonal is always visible.
    """
    if i == j:
        return True
    qi, ki = tags[i], tags[j]
    if qi.kind is RegionKind.REWRITE:
        if ki.kind is RegionKind.REWRITE:
            return j <= i
        return True
    if qi.kind is RegionKind.CONTEXT:
        return ki.kind in (RegionKind.CONTEXT, RegionKind.TRIPLE)
    # query in the triple region
    if ki.kind is RegionKind.CONTEXT:
        return True
    if ki.kind is RegionKind.TRIPLE:
        if variant is MaskVariant.BI_MASK:
            return True
        return qi.index == ki.index
    return False


def oracle_mask(tags, variant):
    n = len(tags)
    return [[oracle_visible(tags, i, j, variant) for j in range(n)] for i in range(n)]


def layout_pack(tags):
    """A pack with the region lengths and indices of a written tag layout
    [z][c][r], for the code under test; its tokens, segments and positions
    are zeros."""
    kinds = [tag.kind for tag in tags]
    order = list(RegionKind)
    assert kinds == sorted(kinds, key=order.index), "tags out of [z][c][r] order"
    n = len(tags)
    return PackedSequence(
        token_ids=(PAD_ID,) * n,
        segment_ids=(SegmentType.E_A,) * n,
        position_ids=(0,) * n,
        region_index=tuple(tag.index for tag in tags),
        len_z=kinds.count(RegionKind.TRIPLE),
        len_c=kinds.count(RegionKind.CONTEXT),
        len_r=kinds.count(RegionKind.REWRITE),
    )


def _oracle_layout(example, triples, seed, include_reference):
    """Tokens, a fresh tag per token, and each context token's speaker."""
    session = example.session
    tokens, tags, speakers = [], [], []  # speakers: each context token's utterance's
    for tok, triple_idx in linearize_triples(triples, session, seed):
        tokens.append(tok)
        tags.append(RegionTag(RegionKind.TRIPLE, triple_idx))
        speakers.append(None)
    len_z = len(tokens)
    for turn, utt in enumerate(session.utterances):
        for tok in [*utt.tokens, EOS_TOKEN]:
            tokens.append(tok)
            tags.append(RegionTag(RegionKind.CONTEXT, turn))
            speakers.append(utt.speaker)
    len_c = len(tokens) - len_z
    if include_reference:
        if example.reference is None:
            raise RewriterError("NO_REFERENCE", "cannot pack a reference-less example for training")
        for tok in [BOS_TOKEN, *example.reference, EOS_TOKEN]:
            tokens.append(tok)
            tags.append(RegionTag(RegionKind.REWRITE, 0))
            speakers.append(None)
    return tokens, tags, speakers, len_z, len_c


def oracle_tags(example, triples, seed, include_reference=True):
    """The region tag of every token of ``pack``'s output."""
    return _oracle_layout(example, triples, seed, include_reference)[1]


def oracle_pack(example, triples, vocab, seed, include_reference=True):
    """``pack`` token by token: a fresh tag per token, then one walk over the
    tags for segments and one for positions, which restart wherever a tag
    differs from the one before."""
    tokens, tags, speakers, len_z, len_c = _oracle_layout(
        example, triples, seed, include_reference
    )
    target_speaker = example.session.target_speaker
    segments = []
    for tag, speaker in zip(tags, speakers):
        if tag.kind is RegionKind.TRIPLE:
            segments.append(SegmentType.E_SRL)
        elif tag.kind is RegionKind.CONTEXT:
            segments.append(SegmentType.E_A if speaker is target_speaker else SegmentType.E_B)
        else:
            segments.append(SegmentType.E_A)
    positions = []
    prev, counter = None, 0
    for tag in tags:
        if tag != prev:
            prev, counter = tag, 0
        positions.append(counter)
        counter += 1
    return PackedSequence(
        token_ids=tuple(vocab.encode(tokens)),
        segment_ids=tuple(segments),
        position_ids=tuple(positions),
        region_index=tuple(tag.index for tag in tags),
        len_z=len_z,
        len_c=len_c,
        len_r=len(tokens) - len_z - len_c,
    )


def oracle_argmax(row):
    """Index of the largest entry; the first one wins a tie."""
    best = 0
    for j in range(1, len(row)):
        if row[j] > row[best]:
            best = j
    return best


def append_rewrite_token(packed, token_id):
    """``packed`` with its rewrite region one token longer."""
    return PackedSequence(
        token_ids=packed.token_ids + (token_id,),
        segment_ids=packed.segment_ids + (SegmentType.E_A,),
        position_ids=packed.position_ids + (packed.len_r,),
        region_index=packed.region_index + (0,),
        len_z=packed.len_z,
        len_c=packed.len_c,
        len_r=packed.len_r + 1,
    )


def start_decode(packed_zc):
    """A context-only pack with its rewrite region opened by BOS."""
    if packed_zc.len_r != 0:
        raise RewriterError("SHAPE_MISMATCH", "decode prefix already has a rewrite region")
    return append_rewrite_token(packed_zc, BOS_ID)


def oracle_path_logits(packed_zc, model, path):
    """The logits of every step of decoding ``packed_zc`` along ``path``
    (emitted ids, no BOS), from one full-recompute pass over prefix + BOS +
    ``path``.  A rewrite row sees no later row, so row t holds the logits of
    the step that follows ``path[:t]``: ``len(path) + 1`` rows.

    The pass is ``oracle_forward``, so the decoder's caching, batching and
    stopping and its kernels are all checked.
    """
    packed = start_decode(packed_zc)
    for token_id in path:
        packed = append_rewrite_token(packed, token_id)
    logits, _, _ = oracle_forward(model, make_batch([packed], model.config.mask_variant))
    return list(logits[0, len(packed_zc) :])


GELU_C = math.sqrt(2.0 / math.pi)
LN_EPS = 1e-5


def oracle_layer_norm_forward(x, gamma, beta):
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = centered * inv
    return xhat * gamma + beta, (xhat, inv, gamma)


def oracle_layer_norm_backward(dout, cache):
    xhat, inv, gamma = cache
    dgamma = (dout * xhat).sum(axis=tuple(range(dout.ndim - 1)))
    dbeta = dout.sum(axis=tuple(range(dout.ndim - 1)))
    dxhat = dout * gamma
    mean1 = dxhat.mean(axis=-1, keepdims=True)
    mean2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
    dx = inv * (dxhat - mean1 - xhat * mean2)
    return dx, dgamma, dbeta


def oracle_gelu_forward(x):
    inner = GELU_C * (x + 0.044715 * (x * x * x))  # x**3 is ten times slower
    t = np.tanh(inner)
    return 0.5 * x * (1.0 + t), (x, t)


def oracle_gelu_backward(dout, cache):
    x, t = cache
    dinner = GELU_C * (1.0 + 3 * 0.044715 * x**2)
    return dout * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner)


def oracle_forward(model, batch):
    """Logits [B, L, V] of a made batch with every layer on every row, the
    per-layer activations and the last layer's output.

    Each block is the post-norm transformer block written out: separate
    products, a softmax that allocates at every step, and the oracle's
    layer norm and GELU.
    """
    cfg, p = model.config, model.params
    ids, segs, poss, bias = batch["ids"], batch["segs"], batch["poss"], batch["bias"]
    x = p["tok_emb"][ids] + p["seg_emb"][segs] + p["pos_emb"][poss]
    B, L, d = x.shape
    H = cfg.n_heads
    dh = d // H

    def heads(m):
        return m.reshape(B, L, H, dh).transpose(0, 2, 1, 3)

    caches = []
    for i in range(cfg.n_layers):
        pre = f"layers.{i}."
        qh = heads(x @ p[pre + "attn.Wq"] + p[pre + "attn.bq"])
        kh = heads(x @ p[pre + "attn.Wk"] + p[pre + "attn.bk"])
        vh = heads(x @ p[pre + "attn.Wv"] + p[pre + "attn.bv"])
        scores = qh @ kh.transpose(0, 1, 3, 2) * (1.0 / np.sqrt(dh)) + bias[:, None, :, :]
        scores = scores - scores.max(axis=-1, keepdims=True)
        attn = np.exp(scores)
        attn = attn / attn.sum(axis=-1, keepdims=True)
        ctx = (attn @ vh).transpose(0, 2, 1, 3).reshape(B, L, d)
        res1 = x + (ctx @ p[pre + "attn.Wo"] + p[pre + "attn.bo"])
        x1, ln1 = oracle_layer_norm_forward(res1, p[pre + "ln1.g"], p[pre + "ln1.b"])
        h_pre = x1 @ p[pre + "ff.W1"] + p[pre + "ff.b1"]
        h_act, gelu = oracle_gelu_forward(h_pre)
        res2 = x1 + (h_act @ p[pre + "ff.W2"] + p[pre + "ff.b2"])
        x2, ln2 = oracle_layer_norm_forward(res2, p[pre + "ln2.g"], p[pre + "ln2.b"])
        caches.append(dict(
            x=x, attn=attn, qh=qh, kh=kh, vh=vh, ctx=ctx, ln1=ln1, x1=x1, h_act=h_act,
            gelu=gelu, ln2=ln2,
        ))
        x = x2
    return x @ p["out.W"] + p["out.b"], caches, x


def oracle_loss_and_grads(model, batch, loss_scale=1.0):
    """Summed NLL and its gradients with every layer and the logits head run
    on every row, rows without a target included.  Returns (loss, target
    count, gradients by parameter name).

    It runs ``oracle_forward`` and the textbook backward of every block,
    written with separate products and the oracle's layer-norm and GELU
    backward, so nothing in it is the library's own kernel code.
    """
    cfg, p = model.config, model.params
    target_mask, target_ids = batch["target_mask"], batch["target_ids"]
    logits, layer_caches, x_final = oracle_forward(model, batch)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    norm = exp.sum(axis=-1, keepdims=True)
    probs = exp / norm
    logp = shifted - np.log(norm)
    bi, li = np.nonzero(target_mask)
    loss = float(-logp[bi, li, target_ids[bi, li]].sum())
    dlogits = probs * target_mask[:, :, None]
    dlogits[bi, li, target_ids[bi, li]] -= 1.0
    dlogits *= loss_scale

    g = {name: np.zeros_like(value) for name, value in p.items()}
    ids, segs, poss = batch["ids"], batch["segs"], batch["poss"]
    B, L = ids.shape
    H, dh = cfg.n_heads, cfg.d_model // cfg.n_heads
    scale = 1.0 / np.sqrt(dh)
    g["out.b"] += dlogits.sum(axis=(0, 1))
    g["out.W"] += np.tensordot(x_final, dlogits, axes=([0, 1], [0, 1]))
    dx = dlogits @ p["out.W"].T
    for i in reversed(range(cfg.n_layers)):
        pre = f"layers.{i}."
        c = layer_caches[i]
        dres2, dg2, db2 = oracle_layer_norm_backward(dx, c["ln2"])
        g[pre + "ln2.g"] += dg2
        g[pre + "ln2.b"] += db2
        g[pre + "ff.b2"] += dres2.sum(axis=(0, 1))
        g[pre + "ff.W2"] += np.tensordot(c["h_act"], dres2, axes=([0, 1], [0, 1]))
        dh_pre = oracle_gelu_backward(dres2 @ p[pre + "ff.W2"].T, c["gelu"])
        g[pre + "ff.b1"] += dh_pre.sum(axis=(0, 1))
        g[pre + "ff.W1"] += np.tensordot(c["x1"], dh_pre, axes=([0, 1], [0, 1]))
        dx1 = dres2 + dh_pre @ p[pre + "ff.W1"].T
        dres1, dg1, db1 = oracle_layer_norm_backward(dx1, c["ln1"])
        g[pre + "ln1.g"] += dg1
        g[pre + "ln1.b"] += db1
        g[pre + "attn.bo"] += dres1.sum(axis=(0, 1))
        g[pre + "attn.Wo"] += np.tensordot(c["ctx"], dres1, axes=([0, 1], [0, 1]))
        dctx = (dres1 @ p[pre + "attn.Wo"].T).reshape(B, L, H, dh).transpose(0, 2, 1, 3)
        dattn = dctx @ c["vh"].transpose(0, 1, 3, 2)
        dvh = c["attn"].transpose(0, 1, 3, 2) @ dctx
        dscores = c["attn"] * (dattn - (dattn * c["attn"]).sum(axis=-1, keepdims=True))
        dqh = dscores @ c["kh"] * scale
        dkh = dscores.transpose(0, 1, 3, 2) @ c["qh"] * scale
        dq = dqh.transpose(0, 2, 1, 3).reshape(B, L, cfg.d_model)
        dk = dkh.transpose(0, 2, 1, 3).reshape(B, L, cfg.d_model)
        dv = dvh.transpose(0, 2, 1, 3).reshape(B, L, cfg.d_model)
        for name, dmat in (("q", dq), ("k", dk), ("v", dv)):
            g[pre + f"attn.b{name}"] += dmat.sum(axis=(0, 1))
            g[pre + f"attn.W{name}"] += np.tensordot(c["x"], dmat, axes=([0, 1], [0, 1]))
        dx = (
            dres1
            + dq @ p[pre + "attn.Wq"].T
            + dk @ p[pre + "attn.Wk"].T
            + dv @ p[pre + "attn.Wv"].T
        )
    np.add.at(g["tok_emb"], ids, dx)
    np.add.at(g["seg_emb"], segs, dx)
    np.add.at(g["pos_emb"], poss, dx)
    return loss, int(target_mask.sum()), g
