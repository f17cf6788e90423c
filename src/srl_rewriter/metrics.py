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
from dataclasses import dataclass
from typing import Sequence

from .core import RESERVED_TOKENS, RewriterError

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

    @property
    def em(self) -> float:
        return self.n_matches / self.n_examples

    def row(self) -> str:
        """Aligned B1 B2 B4 R1 R2 RL EM row, x100 with 2 decimals."""
        values = [self.bleu1, self.bleu2, self.bleu4, self.rouge1, self.rouge2, self.rougeL, self.em]
        return "  ".join(f"{100 * v:6.2f}" for v in values)

    def to_dict(self) -> dict:
        return {
            "bleu1": self.bleu1,
            "bleu2": self.bleu2,
            "bleu4": self.bleu4,
            "rouge1": self.rouge1,
            "rouge2": self.rouge2,
            "rougeL": self.rougeL,
            "em": self.em,
            "n_matches": self.n_matches,
            "n_examples": self.n_examples,
        }


def _require_pairs(hypotheses: Sequence[Tokens], references: Sequence[Tokens]) -> None:
    if len(hypotheses) != len(references):
        raise RewriterError(
            "LENGTH_MISMATCH", f"{len(hypotheses)} hypotheses vs {len(references)} references"
        )
    if not hypotheses:
        raise RewriterError("EMPTY_CORPUS", "no hypothesis/reference pairs")


def _ngrams(tokens: Tokens, n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


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
    matched = [0] * n
    total = [0] * n
    hyp_len = 0
    ref_len = 0
    for hyp, ref in zip(hypotheses, references):
        hyp_len += len(hyp)
        ref_len += len(ref)
        for k in range(1, n + 1):
            hyp_counts = _ngrams(hyp, k)
            ref_counts = _ngrams(ref, k)
            matched[k - 1] += sum(min(c, ref_counts[g]) for g, c in hyp_counts.items())
            total[k - 1] += max(len(hyp) - k + 1, 0)
    log_precision = 0.0
    for k in range(n):
        m, t = matched[k], total[k]
        if smooth:
            m, t = m + 1, t + 1
        if m == 0 or t == 0:
            return 0.0
        log_precision += math.log(m / t) / n
    if hyp_len == 0:
        return 0.0
    brevity = min(0.0, 1.0 - ref_len / hyp_len)
    return math.exp(log_precision + brevity)


def _pair_f1(overlap: int, hyp_total: int, ref_total: int) -> float:
    if hyp_total == 0 and ref_total == 0:
        return 1.0  # no n-grams on either side: vacuously perfect
    if overlap == 0:
        return 0.0
    precision = overlap / hyp_total
    recall = overlap / ref_total
    return 2 * precision * recall / (precision + recall)


def rouge_n(hypotheses: Sequence[Tokens], references: Sequence[Tokens], n: int) -> float:
    """Macro-averaged per-pair n-gram overlap F1 with clipped counts."""
    _require_pairs(hypotheses, references)
    total = 0.0
    for hyp, ref in zip(hypotheses, references):
        hyp_counts = _ngrams(hyp, n)
        ref_counts = _ngrams(ref, n)
        overlap = sum(min(c, ref_counts[g]) for g, c in hyp_counts.items())
        total += _pair_f1(overlap, sum(hyp_counts.values()), sum(ref_counts.values()))
    return total / len(hypotheses)


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
    return tuple(t for t in tokens if t not in RESERVED_TOKENS)


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
    return EvalReport(
        bleu1=bleu_n(hypotheses, references, 1, smooth=smooth_bleu),
        bleu2=bleu_n(hypotheses, references, 2, smooth=smooth_bleu),
        bleu4=bleu_n(hypotheses, references, 4, smooth=smooth_bleu),
        rouge1=rouge_n(hypotheses, references, 1),
        rouge2=rouge_n(hypotheses, references, 2),
        rougeL=rouge_l(hypotheses, references),
        n_matches=exact_match_count(hypotheses, references),
        n_examples=len(hypotheses),
    )


REPORT_HEADER = "  ".join(f"{h:>6}" for h in ["B1", "B2", "B4", "R1", "R2", "RL", "EM"])
