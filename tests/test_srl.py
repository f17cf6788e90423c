"""Annotation lint, role statistics, micro-F1 scoring, heuristic extraction."""

from dataclasses import replace

import pytest

from srl_rewriter.core import (
    DialogueSession,
    PATriple,
    RewriteExample,
    RewriterError,
    SemanticRole,
    Span,
    Speaker,
    Utterance,
)
from srl_rewriter.generator import GeneratorConfig, Lexicon, SlotMode, build_session, sample_corpus
from srl_rewriter.srl import (
    OK,
    HeuristicRules,
    TripleLint,
    TripleMode,
    TripleScope,
    TripleSource,
    acquire_triples,
    compute_statistics,
    f1_score,
    lint_annotations,
    score_srl,
    score_srl_corpus,
)


def make_session(*token_lists, speakers=None):
    speakers = speakers or [Speaker.A if i % 2 == 0 else Speaker.B for i in range(len(token_lists))]
    return DialogueSession(
        tuple(
            Utterance(tokens=tuple(toks), speaker=spk)
            for toks, spk in zip(token_lists, speakers)
        )
    )


# -- annotation lint -------------------------------------------------------------


def test_lint_clean_on_generated_annotations():
    example = build_session(
        Lexicon.chinese(), "咖啡", "绿茶", "像", False, SlotMode.PRONOUN, SlotMode.OMIT
    )
    entries = lint_annotations(example.session, example.triples)
    assert entries == (TripleLint(),) * len(example.triples)


def test_lint_flags_future_argument():
    session = make_session(["猫", "像"], ["狗"])
    triple = PATriple(Span(0, 1, 2), SemanticRole.ARG1, Span(1, 0, 1))
    [entry] = lint_annotations(session, [triple])
    assert entry.c1 == "C1_FUTURE_ARGUMENT"
    assert entry.c4 == OK  # nearest-candidate check is skipped for broken spans


def test_lint_warns_on_pronoun_argument():
    session = make_session(["它", "像", "狗"])
    triple = PATriple(Span(0, 1, 2), SemanticRole.ARG0, Span(0, 0, 1))
    [entry] = lint_annotations(session, [triple])
    assert entry == TripleLint(c2="WARN_PRONOUN")


def test_lint_flags_person_pronoun_as_speaker_violation():
    session = make_session(["我", "像", "狗"])
    triple = PATriple(Span(0, 1, 2), SemanticRole.ARG0, Span(0, 0, 1))
    [entry] = lint_annotations(session, [triple])
    assert entry.c3 == "C3_SPEAKER_NOT_SPECIAL"


def test_lint_flags_farther_of_two_identical_mentions():
    session = make_session(["cat", "sat"], ["cat", "is", "dog"])
    pred = Span(1, 1, 2)
    far = PATriple(pred, SemanticRole.ARG0, Span(0, 0, 1))
    near = PATriple(pred, SemanticRole.ARG0, Span(1, 0, 1))
    far_entry, near_entry = lint_annotations(session, [far, near])
    assert far_entry.c4 == "C4_NOT_NEAREST"
    assert near_entry == TripleLint()


# -- corpus statistics -----------------------------------------------------------


def test_statistics_hand_values():
    session = make_session(["狗"], ["猫", "像"], ["不", "像", "它"])
    pred = Span(2, 0, 2)
    example_triples = (
        PATriple(pred, SemanticRole.ARG0, Span(1, 0, 1)),  # cross turn
        PATriple(pred, SemanticRole.ARG1, Span(2, 2, 3)),  # same turn
    )
    stats = compute_statistics(
        [RewriteExample(session=session, triples=example_triples, reference=("猫",))]
    )
    assert stats.overall_ratio == {"ARG0": 0.5, "ARG1": 0.5}
    assert stats.cross_turn_ratio == {"ARG0": 1.0, "ARG1": 0.0}
    assert stats.n_triples == 2
    assert stats.n_predicates == 1  # both triples share one predicate span
    assert stats.n_utterances == 3
    assert stats.n_sessions == 1


def test_statistics_count_predicates_per_session():
    example = build_session(
        Lexicon.chinese(), "苹果", "香蕉", "叫", False, SlotMode.FULL, SlotMode.FULL
    )
    stats = compute_statistics([example, example])
    # identical spans in different sessions stay distinct predicates
    assert stats.n_predicates == 2
    assert stats.n_sessions == 2


def test_statistics_reject_empty_corpus():
    with pytest.raises(RewriterError) as err:
        compute_statistics([])
    assert err.value.code == "EMPTY_CORPUS"


def test_statistics_table_lists_roles_and_totals():
    example = build_session(
        Lexicon.chinese(), "苹果", "香蕉", "叫", False, SlotMode.FULL, SlotMode.FULL
    )
    table = compute_statistics([example]).table()
    assert "ARG0" in table and "ARG1" in table
    assert "totals:" in table


# -- micro-F1 scorer -------------------------------------------------------------


def span_tuple(group=0, label=SemanticRole.ARG0, turn=0):
    return group, PATriple(Span(turn, 0, 1), label, Span(turn, 1, 2))


def test_f1_hand_values():
    assert f1_score(0.5, 0.25) == pytest.approx(1 / 3)
    assert f1_score(1.0, 1.0) == 1.0
    assert f1_score(0.0, 0.0) == 0.0


def test_score_srl_partial_overlap():
    gold = [span_tuple(turn=t) for t in range(4)]
    pred = [gold[0], span_tuple(turn=9)]
    p, r, f1 = score_srl(pred, gold)
    assert p == 0.5
    assert r == 0.25
    assert f1 == pytest.approx(1 / 3)


def test_score_srl_requires_exact_label_match():
    gold = [span_tuple(label=SemanticRole.ARG0)]
    pred = [span_tuple(label=SemanticRole.ARG1)]
    assert score_srl(pred, gold) == (0.0, 0.0, 0.0)


def test_score_srl_empty_conventions():
    assert score_srl([], []) == (1.0, 1.0, 1.0)
    assert score_srl([], [span_tuple()]) == (0.0, 0.0, 0.0)
    assert score_srl([span_tuple()], []) == (0.0, 0.0, 0.0)


def test_corpus_scoring_is_grouped_by_record():
    triple = PATriple(Span(0, 0, 1), SemanticRole.ARG0, Span(0, 1, 2))
    # same triple, wrong record -> no credit
    assert score_srl_corpus([[triple], []], [[], [triple]]) == (0.0, 0.0, 0.0)
    assert score_srl_corpus([[triple], []], [[triple], []]) == (1.0, 1.0, 1.0)


def test_corpus_scoring_is_micro_not_macro():
    match = PATriple(Span(0, 0, 1), SemanticRole.ARG0, Span(0, 1, 2))
    junk1 = PATriple(Span(1, 0, 1), SemanticRole.ARG1, Span(0, 1, 2))
    junk2 = PATriple(Span(2, 0, 1), SemanticRole.ARG1, Span(0, 1, 2))
    pred = [[match], [match, junk1, junk2]]
    gold = [[match], [match]]
    p, r, _ = score_srl_corpus(pred, gold)
    assert p == 0.5  # pooled 2/4, where a macro average would give 2/3
    assert r == 1.0


def test_corpus_scoring_length_mismatch():
    with pytest.raises(RewriterError) as err:
        score_srl_corpus([[]], [[], []])
    assert err.value.code == "LENGTH_MISMATCH"


# -- heuristic extraction --------------------------------------------------------


# the verb 像 and its negated form 不像
CHAR_RULES = HeuristicRules.from_lexica(
    replace(Lexicon.chinese(), verbs=("像",), entities=("猫咪", "老虎", "猫"))
)


def extract(rules, *token_lists):
    session = make_session(*token_lists)
    example = RewriteExample(session=session, triples=(), reference=None)
    return acquire_triples(example, TripleSource(TripleMode.HEURISTIC), rules=rules), session


def test_heuristic_simple_svo():
    triples, _ = extract(CHAR_RULES, ["猫", "咪", "像", "老", "虎"])
    assert triples == (
        PATriple(Span(0, 2, 3), SemanticRole.ARG0, Span(0, 0, 2)),
        PATriple(Span(0, 2, 3), SemanticRole.ARG1, Span(0, 3, 5)),
    )


def test_heuristic_negated_predicate_span_and_am_neg():
    triples, _ = extract(CHAR_RULES, ["猫", "咪", "不", "像", "老", "虎"])
    pred = Span(0, 2, 4)  # negation particle folded into the predicate
    assert triples == (
        PATriple(pred, SemanticRole.ARG0, Span(0, 0, 2)),
        PATriple(pred, SemanticRole.ARG1, Span(0, 4, 6)),
        PATriple(pred, SemanticRole.AM_NEG, Span(0, 2, 3)),
    )


def test_heuristic_object_slot_takes_nearest_prior_mention():
    # bare verb turn: the object is resolved first, to the closest mention,
    # and the subject then reaches one mention further back
    triples, _ = extract(CHAR_RULES, ["老", "虎"], ["猫", "咪"], ["不", "像"])
    pred = Span(2, 0, 2)
    assert triples == (
        PATriple(pred, SemanticRole.ARG0, Span(0, 0, 2)),
        PATriple(pred, SemanticRole.ARG1, Span(1, 0, 2)),
        PATriple(pred, SemanticRole.AM_NEG, Span(2, 0, 1)),
    )


def test_heuristic_never_reuses_one_surface_for_both_slots():
    triples, _ = extract(CHAR_RULES, ["猫", "咪"], ["猫", "咪"], ["像"])
    assert triples == (PATriple(Span(2, 0, 1), SemanticRole.ARG1, Span(1, 0, 2)),)


def test_heuristic_entity_matching_is_longest_first():
    triples, _ = extract(CHAR_RULES, ["猫", "咪", "像", "猫"])
    assert triples == (
        PATriple(Span(0, 2, 3), SemanticRole.ARG0, Span(0, 0, 2)),
        PATriple(Span(0, 2, 3), SemanticRole.ARG1, Span(0, 3, 4)),
    )


def test_heuristic_word_mode_multi_token_verb():
    rules = HeuristicRules.from_lexica(
        replace(Lexicon.words(), verbs=("is",), entities=("tea", "coffee"))
    )
    triples, _ = extract(rules, ["tea", "not", "is", "coffee"])
    pred = Span(0, 1, 3)
    assert triples == (
        PATriple(pred, SemanticRole.ARG0, Span(0, 0, 1)),
        PATriple(pred, SemanticRole.ARG1, Span(0, 3, 4)),
        PATriple(pred, SemanticRole.AM_NEG, Span(0, 1, 2)),
    )


def one_lexicon_rules(lex):
    """The rule table of one lexicon alone: its verbs, their negated forms and
    its entities, each split the way that lexicon tokenizes words."""
    def split(word):
        return tuple(word) if lex.char_tokens else tuple(word.split())

    joiner = "" if lex.char_tokens else " "
    verbs = {split(v) for v in (*lex.verbs, *(lex.negation + joiner + v for v in lex.verbs))}
    entities = {split(e) for e in lex.entities}
    return HeuristicRules(
        verbs=tuple(sorted(verbs, key=len, reverse=True)),
        entities=tuple(sorted(entities, key=len, reverse=True)),
        negation_prefixes=(lex.negation,),
    )


REGIMES = {
    "default": {},
    "modifiers": dict(tmp_rate=0.5, loc_rate=0.5, neg_rate=0.5, include_negation_triples=True),
    "cross-turn": dict(cross_turn_rate=0.9),
}


@pytest.mark.parametrize("regime", list(REGIMES))
@pytest.mark.parametrize("token_mode", ["char", "word"])
def test_the_joint_rule_table_finds_what_each_lexicons_own_table_finds(token_mode, regime):
    config = GeneratorConfig(token_mode=token_mode, n_sessions=150, **REGIMES[regime])
    own = one_lexicon_rules(config.lexicon)
    other = one_lexicon_rules(Lexicon.words() if token_mode == "char" else Lexicon.chinese())
    found = 0
    for seed in range(4):
        for example in sample_corpus(replace(config, seed=seed)):
            for scope in TripleScope:
                source = TripleSource(TripleMode.HEURISTIC, scope)
                triples = acquire_triples(example, source, rules=own)
                assert acquire_triples(example, source) == triples
                assert acquire_triples(example, source, rules=other) == ()
                found += len(triples)
    assert found > 4 * 150 * 2 * 2  # at least ARG0 and ARG1 in every session and scope


# -- triple acquisition ----------------------------------------------------------


def test_acquire_none_mode_is_empty():
    example = build_session(
        Lexicon.chinese(), "大海", "湖水", "像", False, SlotMode.FULL, SlotMode.FULL
    )
    assert acquire_triples(example, TripleSource(TripleMode.NONE)) == ()


def test_acquire_gold_requires_stored_triples():
    bare = RewriteExample(session=make_session(["猫", "像", "狗"]), triples=(), reference=("猫",))
    with pytest.raises(RewriterError) as err:
        acquire_triples(bare, TripleSource(TripleMode.GOLD))
    assert err.value.code == "MISSING_GOLD"


def test_last_utterance_scope_drops_earlier_predicates():
    example = build_session(
        Lexicon.chinese(), "粤语", "普通话", "算", True, SlotMode.OMIT, SlotMode.OMIT
    )
    full = acquire_triples(example, TripleSource(TripleMode.HEURISTIC))
    last = acquire_triples(
        example, TripleSource(TripleMode.HEURISTIC, TripleScope.LAST_UTTERANCE_ONLY)
    )
    last_turn = len(example.session) - 1
    assert all(t.predicate.turn_index == last_turn for t in last)
    # the relation verb in the middle turn yields extra full-context triples
    assert any(t.predicate.turn_index < last_turn for t in full)
    assert set(last) <= set(full)


def test_gold_scope_filter_keeps_last_turn_annotations():
    example = build_session(
        Lexicon.chinese(), "电影", "音乐", "是", False, SlotMode.FULL, SlotMode.FULL
    )
    scoped = acquire_triples(
        example, TripleSource(TripleMode.GOLD, TripleScope.LAST_UTTERANCE_ONLY)
    )
    assert scoped == example.triples  # generated gold predicates all sit in the target turn
