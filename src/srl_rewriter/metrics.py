"""Corpus evaluation: BLEU-1/2/4, ROUGE-1/2/L, exact match.

Conventions (the usual ones, stated so numbers are comparable):
  * BLEU is corpus-level: geometric mean of clipped modified k-gram precisions
    with uniform weights, times a brevity penalty computed over corpus totals.
    Any zero k-gram precision zeroes the score unless add-one smoothing is on.
  * ROUGE-1/2 and ROUGE-L are per-pair F1 scores macro-averaged over the corpus.
  * EM is the exact fraction matches/n with reserved tokens stripped first.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

from .core import STRUCTURAL_TOKENS, RewriterError

Tokens = Sequence[str]


@dataclass(frozen=True)
class EvalReport:
    """One evaluation run; metric fields are fractions in [0, 1]."""

    bleu1: float
    bleu2: float
    bleu4: float
    rouge1: float
    rouge2: float
    rougeL: float
    n_matches: int
    n_examples: int
    em: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "em", self.n_matches / self.n_examples)

    def row(self) -> str:
        """Aligned B1 B2 B4 R1 R2 RL EM row, x100 with 2 decimals."""
        values = [self.bleu1, self.bleu2, self.bleu4, self.rouge1, self.rouge2, self.rougeL, self.em]
        return "  ".join(f"{100 * v:6.2f}" for v in values)


def _require_pairs(hypotheses: Sequence[Tokens], references: Sequence[Tokens]) -> None:
    if len(hypotheses) != len(references):
        raise RewriterError(
            "LENGTH_MISMATCH", f"{len(hypotheses)} hypotheses vs {len(references)} references"
        )
    if not hypotheses:
        raise RewriterError("EMPTY_CORPUS", "no hypothesis/reference pairs")


def _ngrams(tokens: Tokens, n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def _pair_counts(hyp: Tokens, ref: Tokens, n: int) -> list[tuple[int, int, int]]:
    """For each order k in 1..n: the clipped k-gram overlap of a pair and its
    hypothesis and reference k-gram totals."""
    out = []
    for k in range(1, n + 1):
        hyp_counts = _ngrams(hyp, k)
        ref_counts = _ngrams(ref, k)
        overlap = sum(min(c, ref_counts[g]) for g, c in hyp_counts.items())
        out.append((overlap, max(len(hyp) - k + 1, 0), max(len(ref) - k + 1, 0)))
    return out


def _bleu(counts: list, n: int, smooth: bool) -> float:
    """Corpus BLEU-n from the ``_pair_counts`` of every pair, orders 1..n or
    more; the order-1 totals are the token counts."""
    log_precision = 0.0
    for k in range(n):
        m = sum(pair[k][0] for pair in counts)
        t = sum(pair[k][1] for pair in counts)
        if smooth:
            m, t = m + 1, t + 1
        if m == 0 or t == 0:
            return 0.0
        log_precision += math.log(m / t) / n
    hyp_len = sum(pair[0][1] for pair in counts)
    if hyp_len == 0:
        return 0.0
    ref_len = sum(pair[0][2] for pair in counts)
    brevity = min(0.0, 1.0 - ref_len / hyp_len)
    return math.exp(log_precision + brevity)


def bleu_n(
    hypotheses: Sequence[Tokens],
    references: Sequence[Tokens],
    n: int,
    smooth: bool = False,
) -> float:
    """Corpus BLEU with uniform weights over k-gram orders 1..n."""
    _require_pairs(hypotheses, references)
    if n < 1:
        raise RewriterError("BAD_ORDER", f"n must be >= 1, got {n}")
    counts = [_pair_counts(h, r, n) for h, r in zip(hypotheses, references)]
    return _bleu(counts, n, smooth)


def _pair_f1(overlap: int, hyp_total: int, ref_total: int) -> float:
    if hyp_total == 0 and ref_total == 0:
        return 1.0  # no n-grams on either side: vacuously perfect
    if overlap == 0:
        return 0.0
    precision = overlap / hyp_total
    recall = overlap / ref_total
    return 2 * precision * recall / (precision + recall)


def _rouge(counts: list, n: int) -> float:
    """Macro-averaged ROUGE-n from the ``_pair_counts`` of every pair."""
    return sum(_pair_f1(*pair[n - 1]) for pair in counts) / len(counts)


def rouge_n(hypotheses: Sequence[Tokens], references: Sequence[Tokens], n: int) -> float:
    """Macro-averaged per-pair n-gram overlap F1 with clipped counts."""
    _require_pairs(hypotheses, references)
    if n < 1:
        raise RewriterError("BAD_ORDER", f"n must be >= 1, got {n}")
    return _rouge([_pair_counts(h, r, n) for h, r in zip(hypotheses, references)], n)


def lcs_length(a: Tokens, b: Tokens) -> int:
    """Longest common subsequence length by the standard quadratic DP."""
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        curr = [0]
        for j, y in enumerate(b, start=1):
            if x == y:
                curr.append(prev[j - 1] + 1)
            else:
                curr.append(max(prev[j], curr[j - 1]))
        prev = curr
    return prev[len(b)]


def rouge_l(hypotheses: Sequence[Tokens], references: Sequence[Tokens]) -> float:
    """Macro-averaged LCS F1: P = LCS/|hyp|, R = LCS/|ref|."""
    _require_pairs(hypotheses, references)
    total = 0.0
    for hyp, ref in zip(hypotheses, references):
        total += _pair_f1(lcs_length(hyp, ref), len(hyp), len(ref))
    return total / len(hypotheses)


def _strip_reserved(tokens: Tokens) -> tuple[str, ...]:
    return tuple(t for t in tokens if t not in STRUCTURAL_TOKENS)


def exact_match_count(hypotheses: Sequence[Tokens], references: Sequence[Tokens]) -> int:
    _require_pairs(hypotheses, references)
    return sum(
        1 for hyp, ref in zip(hypotheses, references) if _strip_reserved(hyp) == _strip_reserved(ref)
    )


def evaluate_corpus(
    hypotheses: Sequence[Tokens],
    references: Sequence[Tokens],
    smooth_bleu: bool = False,
) -> EvalReport:
    _require_pairs(hypotheses, references)
    # each pair's k-gram counts, orders 1 to 4, serve every BLEU and ROUGE-n field
    counts = [_pair_counts(h, r, 4) for h, r in zip(hypotheses, references)]
    return EvalReport(
        bleu1=_bleu(counts, 1, smooth_bleu),
        bleu2=_bleu(counts, 2, smooth_bleu),
        bleu4=_bleu(counts, 4, smooth_bleu),
        rouge1=_rouge(counts, 1),
        rouge2=_rouge(counts, 2),
        rougeL=rouge_l(hypotheses, references),
        n_matches=exact_match_count(hypotheses, references),
        n_examples=len(hypotheses),
    )


REPORT_HEADER = "  ".join(f"{h:>6}" for h in ["B1", "B2", "B4", "R1", "R2", "RL", "EM"])
