"""Synthetic corpus: construction, sampling, splits, declared statistics."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from srl_rewriter.core import RewriterError, SemanticRole, Span, validate_example
from srl_rewriter.generator import (
    GeneratorConfig,
    Lexicon,
    SlotMode,
    build_session,
    sample_corpus,
    split_corpus,
)
from srl_rewriter.srl import (
    HEURISTIC_RULES,
    TripleLint,
    TripleMode,
    TripleScope,
    TripleSource,
    acquire_triples,
    compute_statistics,
    declared_statistics,
    lint_annotations,
)

CH = Lexicon.chinese()
EN = Lexicon.words()
LAST_ONLY = TripleSource(TripleMode.HEURISTIC, TripleScope.LAST_UTTERANCE_ONLY)


def test_omitted_slots_fixture():
    ex = build_session(CH, "粤语", "普通话", "算", True, SlotMode.OMIT, SlotMode.OMIT)
    assert ex.session.target.tokens == ("不", "算", "吧")
    assert ex.reference == tuple("粤语不算普通话吧")
    arg0, arg1 = ex.triples
    assert arg0.role is SemanticRole.ARG0 and arg0.argument == Span(1, 0, 2)
    assert arg1.role is SemanticRole.ARG1 and arg1.argument == Span(1, 3, 6)
    assert arg0.predicate == Span(2, 0, 2)  # negation folded into the predicate


def test_full_slots_reference_is_the_last_turn_verbatim():
    ex = build_session(CH, "咖啡", "绿茶", "像", False, SlotMode.FULL, SlotMode.FULL)
    assert ex.reference == ex.session.target.tokens
    arg0, arg1 = ex.triples
    assert arg0.argument.turn_index == 2
    assert arg1.argument.turn_index == 2


def test_pronoun_slot_points_back_to_the_mention():
    ex = build_session(CH, "大海", "湖水", "像", False, SlotMode.PRONOUN, SlotMode.FULL)
    assert ex.session.target.tokens[:1] == ("它",)
    arg0 = ex.triples[0]
    assert arg0.argument == Span(1, 0, 2)
    assert arg0.argument.slice(ex.session) == ("大", "海")


def test_identical_entities_rejected():
    with pytest.raises(RewriterError) as err:
        build_session(CH, "苹果", "苹果", "像", False, SlotMode.FULL, SlotMode.FULL)
    assert err.value.code == "CONFIG_INVALID"


def test_tmp_and_loc_slots_join_reference_and_triples():
    ex = build_session(
        CH, "苹果", "香蕉", "像", False, SlotMode.OMIT, SlotMode.OMIT, tmp="今天", loc="家里"
    )
    assert ex.reference == tuple("苹果今天家里像香蕉吧")
    roles = [t.role for t in ex.triples]
    assert roles == [SemanticRole.ARG0, SemanticRole.ARG1, SemanticRole.AM_TMP, SemanticRole.AM_LOC]
    am_tmp = ex.triples[2]
    assert am_tmp.argument.turn_index == 2
    assert am_tmp.argument.slice(ex.session) == ("今", "天")


def test_negation_triple_is_opt_in():
    plain = build_session(CH, "苹果", "香蕉", "像", True, SlotMode.FULL, SlotMode.FULL)
    assert all(t.role is not SemanticRole.AM_NEG for t in plain.triples)
    opted = build_session(
        CH, "苹果", "香蕉", "像", True, SlotMode.FULL, SlotMode.FULL,
        include_negation_triples=True,
    )
    neg = opted.triples[-1]
    assert neg.role is SemanticRole.AM_NEG
    assert neg.argument.slice(opted.session) == ("不",)


def test_word_mode_keeps_words_whole():
    ex = build_session(EN, "tea", "coffee", "is", False, SlotMode.FULL, SlotMode.FULL)
    assert ex.session.utterances[0].tokens == ("about", "tea")
    assert ex.session.target.tokens == ("tea", "is", "coffee", "then")
    assert ex.reference == ("tea", "is", "coffee", "then")


def test_sessions_validate_and_lint_clean():
    corpus = sample_corpus(GeneratorConfig(n_sessions=300, seed=4, neg_rate=0.4, tmp_rate=0.2))
    for ex in corpus:
        assert validate_example(ex) == ()
        assert lint_annotations(ex.session, ex.triples) == (TripleLint(),) * len(ex.triples)


# -- sampling ---------------------------------------------------------------------


def test_sampling_is_deterministic_per_seed():
    cfg = GeneratorConfig(n_sessions=20, seed=13)
    assert sample_corpus(cfg) == sample_corpus(cfg)
    other = sample_corpus(GeneratorConfig(n_sessions=20, seed=14))
    assert other != sample_corpus(cfg)


def test_zero_alteration_weights_disable_rewriting():
    cfg = GeneratorConfig(
        n_sessions=30, seed=1, cross_turn_rate=0.9, omission_rate=0.0, pronoun_rate=0.0
    )
    assert cfg.effective_alteration_rate == 0.0
    for ex in sample_corpus(cfg):
        assert ex.reference == ex.session.target.tokens


def test_pronoun_share():
    assert GeneratorConfig(omission_rate=0.5, pronoun_rate=0.5).pronoun_share == 0.5
    assert GeneratorConfig(omission_rate=0.2, pronoun_rate=0.6).pronoun_share == pytest.approx(0.75)
    assert GeneratorConfig(omission_rate=0.0, pronoun_rate=0.0).pronoun_share == 0.0


def test_config_validation():
    for kwargs in (
        dict(n_sessions=0),
        dict(token_mode="byte"),
        dict(cross_turn_rate=1.5),
        dict(neg_rate=-0.1),
    ):
        with pytest.raises(RewriterError) as err:
            GeneratorConfig(**kwargs)
        assert err.value.code == "CONFIG_INVALID"


def test_split_is_contiguous_80_10_10():
    corpus = sample_corpus(GeneratorConfig(n_sessions=57, seed=2))
    train, dev, test = split_corpus(corpus)
    assert (len(train), len(dev), len(test)) == (47, 5, 5)
    assert train + dev + test == corpus
    tiny_train, tiny_dev, tiny_test = split_corpus(corpus[:3])
    assert (len(tiny_train), len(tiny_dev), len(tiny_test)) == (1, 1, 1)
    with pytest.raises(RewriterError) as err:
        split_corpus(corpus[:2])
    assert err.value.code == "EMPTY_CORPUS"


# -- declared vs measured statistics ------------------------------------------------


def test_declared_statistics_match_a_sampled_corpus():
    # seed frozen: at 2000 draws the sampling noise sits ~1 sigma inside 0.02
    cfg = GeneratorConfig(n_sessions=2000, seed=1, cross_turn_rate=0.3, tmp_rate=0.3)
    declared = declared_statistics(cfg)
    measured = compute_statistics(sample_corpus(cfg))
    assert set(declared.overall_ratio) == set(measured.overall_ratio)
    for role, expected in declared.overall_ratio.items():
        assert measured.overall_ratio[role] == pytest.approx(expected, abs=0.02)
    for role, expected in declared.cross_turn_ratio.items():
        assert measured.cross_turn_ratio[role] == pytest.approx(expected, abs=0.02)
    assert measured.n_predicates == declared.n_predicates == 2000
    assert measured.n_utterances == declared.n_utterances == 6000
    assert measured.n_sessions == 2000


def test_declared_statistics_shape_without_optional_roles():
    declared = declared_statistics(GeneratorConfig(n_sessions=100))
    assert declared.overall_ratio == {"ARG0": 0.5, "ARG1": 0.5}
    assert declared.cross_turn_ratio == {"ARG0": 0.3, "ARG1": 0.3}
    assert declared.n_triples == 200


# -- heuristic extraction against gold ----------------------------------------------


@pytest.mark.parametrize("x_mode", list(SlotMode))
@pytest.mark.parametrize("y_mode", list(SlotMode))
@pytest.mark.parametrize("lex,x,y,verb", [(CH, "粤语", "普通话", "算"), (EN, "tea", "coffee", "seems")])
def test_heuristic_recovers_gold_arguments_in_the_target_turn(lex, x, y, verb, x_mode, y_mode):
    for negated in (False, True):
        ex = build_session(lex, x, y, verb, negated, x_mode, y_mode)
        predicted = acquire_triples(ex, LAST_ONLY)
        core_args = {(t.role, t.predicate, t.argument) for t in predicted
                     if t.role in (SemanticRole.ARG0, SemanticRole.ARG1)}
        gold_args = {(t.role, t.predicate, t.argument) for t in ex.triples
                     if t.role in (SemanticRole.ARG0, SemanticRole.ARG1)}
        assert core_args == gold_args, f"{x_mode} {y_mode} negated={negated}"


def test_heuristic_rules_include_negated_verb_forms_of_both_lexica():
    assert ("不", "算") in HEURISTIC_RULES.verbs and ("算",) in HEURISTIC_RULES.verbs
    assert ("not", "is") in HEURISTIC_RULES.verbs and ("is",) in HEURISTIC_RULES.verbs


def test_heuristic_corpus_f1_is_high_but_not_assumed_perfect():
    cfg = GeneratorConfig(n_sessions=50, seed=9, neg_rate=0.5)
    corpus = sample_corpus(cfg)
    from srl_rewriter.srl import score_srl_corpus

    predicted = [list(acquire_triples(ex, LAST_ONLY)) for ex in corpus]
    gold = [list(ex.triples) for ex in corpus]
    _, recall, f1 = score_srl_corpus(predicted, gold)
    assert recall == 1.0  # every gold argument is recovered
    assert 0.5 < f1 <= 1.0  # spurious AM-NEG predictions may cost precision


# -- properties ---------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    pair=st.permutations(range(len(CH.entities))).map(lambda p: p[:2]),
    verb=st.sampled_from(CH.verbs),
    negated=st.booleans(),
    x_mode=st.sampled_from(list(SlotMode)),
    y_mode=st.sampled_from(list(SlotMode)),
    tmp=st.sampled_from((None,) + CH.tmp_words),
)
def test_random_sessions_are_well_formed(pair, verb, negated, x_mode, y_mode, tmp):
    x, y = CH.entities[pair[0]], CH.entities[pair[1]]
    ex = build_session(CH, x, y, verb, negated, x_mode, y_mode, tmp=tmp)
    assert validate_example(ex) == ()
    assert lint_annotations(ex.session, ex.triples) == (TripleLint(),) * len(ex.triples)
    # the reference always restores both mentions
    joined = "".join(ex.reference)
    assert x in joined and y in joined
