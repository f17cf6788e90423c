"""Metric correctness against hand-derived values and brute-force oracles."""

import dataclasses
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from oracles import oracle_bleu, oracle_lcs, oracle_rouge_l, oracle_rouge_n
from srl_rewriter.metrics import (
    REPORT_HEADER,
    RewriterError,
    bleu_n,
    evaluate_corpus,
    exact_match_count,
    lcs_length,
    rouge_l,
    rouge_n,
)

# -- hand-derived fixed points ------------------------------------------------


def test_bleu1_brevity_hand_value():
    # one pair: hyp 4 tokens all matching, ref 5 tokens
    # p1 = 4/4, BP = exp(1 - 5/4) = exp(-0.25)
    hyp = [["a", "b", "c", "d"]]
    ref = [["a", "b", "c", "d", "e"]]
    expected = math.exp(-0.25)
    assert bleu_n(hyp, ref, 1) == pytest.approx(expected, abs=1e-12)
    assert bleu_n(hyp, ref, 1) == pytest.approx(0.7788, abs=5e-5)


def test_bleu_no_brevity_penalty_when_longer():
    hyp = [["a", "b", "c", "d", "e", "f"]]
    ref = [["a", "b", "c"]]
    # all three ref unigrams matched and clipped: p1 = 3/6, BP = 1
    assert bleu_n(hyp, ref, 1) == pytest.approx(0.5, abs=1e-12)


def test_bleu_clipping_counts_each_gram_at_most_ref_times():
    # 的 matches only once (clipped); hyp is longer than ref so BP stays 1
    hyp = [["的", "的", "的", "的"]]
    ref = [["的", "猫"]]
    assert bleu_n(hyp, ref, 1) == pytest.approx(0.25, abs=1e-12)


def test_bleu_zero_without_any_higher_order_match():
    hyp = [["a", "x", "b"]]
    ref = [["a", "y", "b"]]
    assert bleu_n(hyp, ref, 2) == 0.0
    assert bleu_n(hyp, ref, 2, smooth=True) > 0.0


def test_bleu_identical_corpus_is_one():
    pairs = [["看", "电", "影"], ["好"]]
    assert bleu_n(pairs, pairs, 1) == pytest.approx(1.0)
    assert bleu_n(pairs, pairs, 2) == pytest.approx(1.0)


def test_rouge1_hand_value():
    # overlap 2, hyp 3, ref 5: P=2/3 R=2/5 F1=0.5
    assert rouge_n([["a", "b", "x"]], [["a", "b", "c", "d", "e"]], 1) == pytest.approx(0.5)


def test_rouge_l_hand_value():
    # hyp abcd, ref axcd: LCS acd = 3; P=R=3/4; F1=0.75
    assert rouge_l([["a", "b", "c", "d"]], [["a", "x", "c", "d"]]) == pytest.approx(0.75)


def test_rouge_l_macro_average():
    hyps = [["a", "b"], ["q"]]
    refs = [["a", "b"], ["z"]]
    assert rouge_l(hyps, refs) == pytest.approx(0.5)


def test_lcs_hand_values():
    assert lcs_length("ABCBDAB", "BDCABA") == 4
    assert lcs_length([], ["a"]) == 0
    assert lcs_length(["a"], ["a"]) == 1


def test_empty_pair_conventions():
    # no tokens on either side: vacuously perfect on every pair metric
    assert rouge_n([[]], [[]], 1) == 1.0
    assert rouge_l([[]], [[]]) == 1.0
    assert evaluate_corpus([[]], [[]]).em == 1.0
    # one-sided emptiness is a miss
    assert rouge_n([[]], [["a"]], 1) == 0.0
    assert rouge_l([["a"]], [[]]) == 0.0


def test_exact_match_ignores_reserved_tokens():
    assert exact_match_count([["[EOS]", "a"]], [["a"]]) == 1
    assert evaluate_corpus([["a", "b"]], [["a"]]).em == 0.0


def test_length_mismatch_and_empty_corpus_errors():
    with pytest.raises(RewriterError) as err:
        bleu_n([["a"]], [], 1)
    assert err.value.code == "LENGTH_MISMATCH"
    with pytest.raises(RewriterError) as err:
        evaluate_corpus([], [])
    assert err.value.code == "EMPTY_CORPUS"
    for order in (bleu_n, rouge_n):
        with pytest.raises(RewriterError) as err:
            order([["a"]], [["a"]], 0)
        assert err.value.code == "BAD_ORDER"


def test_report_shape_and_row():
    report = evaluate_corpus([["a", "b"]], [["a", "b"]])
    assert report.em == 1.0
    assert report.n_matches == 1 and report.n_examples == 1
    row = report.row()
    assert len(row.split()) == len(REPORT_HEADER.split()) == 7
    assert "100.00" in row
    assert dataclasses.asdict(report)["em"] == 1.0
    assert "srl_f1" not in dataclasses.asdict(report)


# -- oracle cross-checks --------------------------------------------------------


def random_corpus(rng, max_pairs=8, max_len=10, vocab="abcde"):
    n = rng.randint(1, max_pairs)
    hyps = [[rng.choice(vocab) for _ in range(rng.randint(0, max_len))] for _ in range(n)]
    refs = [[rng.choice(vocab) for _ in range(rng.randint(0, max_len))] for _ in range(n)]
    return hyps, refs


@pytest.mark.parametrize("seed", range(25))
def test_bleu_rouge_match_oracles(seed):
    rng = random.Random(seed)
    hyps, refs = random_corpus(rng)
    for n in (1, 2, 4):
        assert bleu_n(hyps, refs, n) == pytest.approx(oracle_bleu(hyps, refs, n), abs=1e-9)
        assert bleu_n(hyps, refs, n, smooth=True) == pytest.approx(
            oracle_bleu(hyps, refs, n, smooth=True), abs=1e-9
        )
    for n in (1, 2):
        assert rouge_n(hyps, refs, n) == pytest.approx(oracle_rouge_n(hyps, refs, n), abs=1e-9)


@pytest.mark.parametrize("smooth", [False, True])
@pytest.mark.parametrize("seed", range(25))
def test_report_fields_equal_the_separate_metrics(seed, smooth):
    # the report counts each pair's k-grams once for all its BLEU and ROUGE-n fields
    hyps, refs = random_corpus(random.Random(seed), max_len=6, vocab="abc")
    report = evaluate_corpus(hyps, refs, smooth_bleu=smooth)
    for n in (1, 2, 4):
        assert getattr(report, f"bleu{n}") == bleu_n(hyps, refs, n, smooth=smooth)
    for n in (1, 2):
        assert getattr(report, f"rouge{n}") == rouge_n(hyps, refs, n)
    assert report.rougeL == rouge_l(hyps, refs)


@pytest.mark.parametrize("seed", range(25))
def test_rouge_l_matches_exhaustive_oracle(seed):
    rng = random.Random(seed)
    hyps, refs = random_corpus(rng, max_len=8, vocab="abc")
    assert rouge_l(hyps, refs) == pytest.approx(oracle_rouge_l(hyps, refs), abs=1e-9)


@given(
    st.lists(st.sampled_from("abc"), max_size=8),
    st.lists(st.sampled_from("abc"), max_size=8),
)
@settings(max_examples=60, deadline=None)
def test_lcs_dp_equals_enumeration(a, b):
    assert lcs_length(a, b) == oracle_lcs(a, b)


@given(
    st.lists(
        st.lists(st.sampled_from("ab"), min_size=0, max_size=6), min_size=1, max_size=5
    ).filter(lambda lists: any(lists))
)
@settings(max_examples=50, deadline=None)
def test_identical_pairs_score_one_everywhere(token_lists):
    report = evaluate_corpus(token_lists, token_lists)
    for value in (report.bleu1, report.rouge1, report.rouge2, report.rougeL, report.em):
        assert value == pytest.approx(1.0)


def test_all_empty_corpus_keeps_bleu_zero_convention():
    # BLEU of a zero-length hypothesis corpus is 0.0 even against itself;
    # the per-pair F-metrics and EM treat empty-vs-empty as a perfect match.
    report = evaluate_corpus([[]], [[]])
    assert report.bleu1 == 0.0
    for value in (report.rouge1, report.rouge2, report.rougeL, report.em):
        assert value == pytest.approx(1.0)


def test_em_at_most_bleu1_on_decode_like_corpora():
    # Not a universal law (brevity-penalty corner cases break it), but on
    # benign same-length-scale corpora EM is the strictest of the metrics.
    rng = random.Random(7)
    for _ in range(50):
        refs = [[rng.choice("abcd") for _ in range(rng.randint(1, 8))] for _ in range(10)]
        hyps = [list(r) if rng.random() < 0.5 else [rng.choice("abcd") for _ in r] for r in refs]
        report = evaluate_corpus(hyps, refs)
        assert report.em <= report.bleu1 + 1e-12


def test_bleu_monotone_in_exact_copies():
    ref = [["a", "b", "c", "d"] for _ in range(6)]
    scores = []
    for k in range(0, 7):
        hyps = [list(r) if i < k else ["x", "x", "x", "x"] for i, r in enumerate(ref)]
        scores.append(bleu_n(hyps, ref, 2))
    assert scores == sorted(scores)
    assert scores[0] == 0.0 and scores[-1] == pytest.approx(1.0)
