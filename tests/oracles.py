"""Independent reference implementations used to cross-check the library.

Everything here is written the slow, obvious way on purpose: list scans
instead of Counters, exhaustive enumeration instead of DP, pairwise rule
checks instead of vectorized construction.  Tests compare library outputs
against these, so the two code paths must never share logic.
"""

import math
from itertools import combinations

from srl_rewriter.masks import MaskVariant
from srl_rewriter.model import make_batch
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
