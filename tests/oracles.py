"""Independent reference implementations used to cross-check the library.

Everything here is written the slow, obvious way on purpose: list scans
instead of Counters, exhaustive enumeration instead of DP, pairwise rule
checks instead of vectorized construction.  Tests compare library outputs
against these, so the two code paths must never share logic.
"""

import math
from itertools import combinations

import numpy as np

from srl_rewriter.masks import MaskVariant
from srl_rewriter.model import _gelu_backward, _layer_norm_backward, make_batch
from srl_rewriter.packing import EOS_ID, RegionKind, append_rewrite_token, start_decode


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


def oracle_argmax(row):
    """Index of the largest entry; the first one wins a tie."""
    best = 0
    for j in range(1, len(row)):
        if row[j] > row[best]:
            best = j
    return best


def oracle_greedy_decode(packed_zc, model, max_steps):
    """Greedy decoding by full recompute: every step rebuilds the batch and
    the mask and reruns the whole sequence, then reads the logits of its last
    row.  Returns the emitted ids (no BOS/EOS) and the logits of every step.

    It runs the library's forward pass, so what it checks is the caching,
    batching and stopping around that pass, not the pass itself.
    """
    packed = start_decode(packed_zc)
    emitted, step_logits = [], []
    while True:
        logits, _ = model.forward_batch(make_batch([packed], model.config.mask_variant))
        row = logits[0, len(packed) - 1]
        step_logits.append(row)
        next_id = oracle_argmax(row)
        if next_id == EOS_ID:
            break
        emitted.append(next_id)
        if len(emitted) >= max_steps:
            break
        packed = append_rewrite_token(packed, next_id)
    return emitted, step_logits


def oracle_loss_and_grads(model, batch, loss_scale=1.0):
    """Summed NLL and its gradients with every layer and the logits head run
    on every row, rows without a target included.  Returns (loss, target
    count, gradients by parameter name); ``model.grads`` is left alone.

    It runs the library's full-row forward and its layer-norm and GELU
    backward helpers (criterion 3 checks those against finite differences);
    the rest of the backward is the full-row one that loss-row training
    replaced.
    """
    cfg, p = model.config, model.params
    target_mask, target_ids = batch["target_mask"], batch["target_ids"]
    logits, cache = model.forward_batch(batch, need_cache=True)
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
    ids, segs, poss, layer_caches, x_final = cache
    B, L = ids.shape
    H, dh = cfg.n_heads, cfg.d_model // cfg.n_heads
    scale = 1.0 / np.sqrt(dh)
    out_w = p["tok_emb"].T if cfg.tie_embeddings else p["out.W"]
    g["out.b"] += dlogits.sum(axis=(0, 1))
    if cfg.tie_embeddings:
        g["tok_emb"] += np.tensordot(dlogits, x_final, axes=([0, 1], [0, 1]))
    else:
        g["out.W"] += np.tensordot(x_final, dlogits, axes=([0, 1], [0, 1]))
    dx = dlogits @ out_w.T
    for i in reversed(range(cfg.n_layers)):
        pre = f"layers.{i}."
        c = layer_caches[i]
        dres2, dg2, db2 = _layer_norm_backward(dx, c["ln2"])
        g[pre + "ln2.g"] += dg2
        g[pre + "ln2.b"] += db2
        g[pre + "ff.b2"] += dres2.sum(axis=(0, 1))
        g[pre + "ff.W2"] += np.tensordot(c["h_act"], dres2, axes=([0, 1], [0, 1]))
        dh_pre = _gelu_backward(dres2 @ p[pre + "ff.W2"].T, c["gelu"])
        g[pre + "ff.b1"] += dh_pre.sum(axis=(0, 1))
        g[pre + "ff.W1"] += np.tensordot(c["x1"], dh_pre, axes=([0, 1], [0, 1]))
        dx1 = dres2 + dh_pre @ p[pre + "ff.W1"].T
        dres1, dg1, db1 = _layer_norm_backward(dx1, c["ln1"])
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
